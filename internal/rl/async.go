package rl

import (
	"context"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"

	"handsfree/internal/nn"
	"handsfree/internal/paramserver"
)

// This file implements the asynchronous actor-learner training split.
// Parallel collection (collect.go) keeps a synchronous round barrier: every
// policy-batch round freezes a snapshot, fans out workers, and joins before
// the next update, so the learner idles while the slowest actor finishes.
// TrainAsync removes the barrier: actor goroutines continuously collect
// episodes against their latest-fetched snapshot from a lock-free parameter
// server and push trajectories into a bounded channel, while the learner
// drains them, applies batched REINFORCE updates, and republishes. The price
// is bounded off-policy staleness (an actor's snapshot may lag the learner
// by up to K versions) and the loss of bitwise determinism — the synchronous
// path remains the deterministic reference implementation.

// AsyncConfig configures TrainAsync.
type AsyncConfig struct {
	// Actors is the number of concurrent actor goroutines (and environment
	// replicas). Default: runtime.GOMAXPROCS(0).
	Actors int
	// Staleness is K, the maximum number of snapshot versions an actor's
	// policy may lag the server at episode start; actors lagging more
	// refetch before collecting. 0 selects the default of 4; use 1 for the
	// tightest useful bound (an actor mid-episode is always at least
	// momentarily behind a concurrent publish).
	Staleness int
	// Queue is the trajectory channel capacity (default 4×Actors). A
	// bounded queue applies backpressure: when the learner falls behind,
	// actors block on the send instead of piling up arbitrarily stale
	// trajectories.
	Queue int
	// MaxSteps bounds episode length (default 128).
	MaxSteps int
	// DropStale makes the learner discard trajectories whose snapshot is
	// more than Staleness versions behind the server at consumption time,
	// instead of learning from them. Dropped episodes still count toward
	// the episode budget and are still reported to the episode callback
	// (with Dropped set).
	DropStale bool
	// WeightStale importance-weights over-stale trajectories instead of
	// discarding them: a trajectory consumed L > Staleness versions behind
	// the server has its advantage scaled by StaleDecay^(L−Staleness) before
	// the policy update, so re-training under live serving traffic wastes no
	// collected experience while trusting stale experience less. When both
	// are set, WeightStale wins over DropStale.
	WeightStale bool
	// StaleDecay is the per-excess-version weight decay for WeightStale
	// (default 0.7).
	StaleDecay float64
	// AdaptStaleness turns the fixed bound K into a ceiling for an adaptive
	// bound: every AdaptWindow consumed episodes the learner compares the
	// observed actor lag against the current bound and tightens it by one
	// (down to MinStaleness) when actors ride the bound — the signature of a
	// learner publishing faster than actors collect — or relaxes it by one
	// (back up to Staleness) when publishes are rare and the bound is slack.
	// Tight bounds keep training data near-on-policy exactly when
	// off-policyness is accumulating fastest, at the price of more snapshot
	// refetches.
	AdaptStaleness bool
	// MinStaleness floors the adaptive bound (default 1; ignored unless
	// AdaptStaleness).
	MinStaleness int
	// AdaptWindow is how many consumed episodes pass between adaptive-bound
	// reevaluations (default 16; ignored unless AdaptStaleness).
	AdaptWindow int
	// Seed derives the per-actor action-sampling RNG streams.
	Seed int64
	// OnPublish, when non-nil, runs after every snapshot publish with the
	// new version (the service hot-swaps its served policy here).
	OnPublish func(version uint64)
}

func (c *AsyncConfig) fill() {
	if c.Actors < 1 {
		c.Actors = runtime.GOMAXPROCS(0)
	}
	if c.Staleness == 0 {
		c.Staleness = 4
	}
	if c.Staleness < 0 {
		c.Staleness = 0
	}
	if c.Queue < 1 {
		c.Queue = 4 * c.Actors
	}
	if c.MaxSteps < 1 {
		c.MaxSteps = 128
	}
	if c.MinStaleness < 1 {
		c.MinStaleness = 1
	}
	if c.MinStaleness > c.Staleness {
		c.MinStaleness = c.Staleness
	}
	if c.AdaptWindow < 1 {
		c.AdaptWindow = 16
	}
	if c.StaleDecay <= 0 || c.StaleDecay >= 1 {
		c.StaleDecay = 0.7
	}
}

// AsyncEpisode is one episode delivered from an actor to the learner.
type AsyncEpisode struct {
	Traj Trajectory
	// Worker is the actor that collected the episode; Seq is the actor's
	// own episode counter. (Worker, Seq) pairs are unique, but arrival
	// order across workers is scheduling-dependent.
	Worker int
	Seq    int
	// Version is the snapshot version the episode was collected under.
	Version uint64
	// Lag is the staleness (server version at episode start minus Version)
	// the actor observed; the staleness bound guarantees Lag ≤ K.
	Lag uint64
	// Out is whatever the after hook returned for this episode (nil
	// without a hook) — the environment outcome captured worker-side.
	Out any
	// Dropped marks episodes the learner discarded under DropStale.
	Dropped bool
	// Weighted marks episodes that were importance-weighted under
	// WeightStale; Traj.Weight carries the applied weight.
	Weighted bool
}

// AsyncStats summarizes one TrainAsync run.
type AsyncStats struct {
	// Episodes is the number of episodes consumed by the learner (== the
	// budget, unless a TrainAsyncCtx cancellation returned early).
	Episodes int
	// Updates is how many policy updates the learner applied.
	Updates int
	// Publishes is how many snapshots the learner published (excluding the
	// initial version-0 snapshot).
	Publishes uint64
	// Dropped counts episodes discarded under DropStale.
	Dropped int
	// Weighted counts episodes importance-weighted under WeightStale.
	Weighted int
	// MaxLag is the largest staleness any actor acted on; the staleness
	// bound guarantees MaxLag ≤ K.
	MaxLag uint64
	// Refetches counts staleness-bound-forced snapshot refetches across
	// all actors.
	Refetches uint64
	// FinalStaleness is the staleness bound in force when training finished
	// (== Staleness unless AdaptStaleness adjusted it).
	FinalStaleness int
	// Tightened and Loosened count adaptive-bound adjustments in each
	// direction (zero unless AdaptStaleness).
	Tightened, Loosened int
}

// TrainAsync trains learner with the asynchronous actor-learner split: one
// actor goroutine per environment in envs, each continuously collecting
// episodes against its latest-fetched policy snapshot from a lock-free
// parameter server, with the learner (on the calling goroutine) draining
// the bounded trajectory queue, folding episodes into policy-batch updates
// via Observe, and republishing a fresh snapshot after every update.
//
// Environments must be independent replicas: each is owned by exactly one
// actor goroutine. The optional after hook runs on the actor goroutine
// immediately after each episode, before the trajectory is queued — the
// place to capture per-episode environment state (last plan, cost, outcome);
// it must touch only worker-local state, and its return value travels to the
// learner as AsyncEpisode.Out. The optional onEpisode callback runs on the
// calling goroutine for every consumed episode, in consumption order.
//
// TrainAsync returns once exactly `episodes` episodes have been collected
// and consumed. A trailing partial policy batch stays pending inside the
// learner, exactly as in sequential training.
func TrainAsync(learner *Reinforce, envs []Env, episodes int, cfg AsyncConfig,
	after func(worker, seq int, traj Trajectory) any,
	onEpisode func(e AsyncEpisode)) AsyncStats {
	return TrainAsyncCtx(context.Background(), learner, envs, episodes, cfg, after, onEpisode)
}

// TrainAsyncCtx is TrainAsync under a request-scoped context: when ctx is
// cancelled (or its deadline passes) the learner stops consuming, the actors
// are told to stop at their next ticket draw, any in-flight trajectories are
// drained and discarded, and the call returns early with
// AsyncStats.Episodes reporting how many episodes were actually consumed
// (less than the budget on cancellation). The learner's pending partial
// batch is preserved, exactly as on a normal return.
func TrainAsyncCtx(ctx context.Context, learner *Reinforce, envs []Env, episodes int, cfg AsyncConfig,
	after func(worker, seq int, traj Trajectory) any,
	onEpisode func(e AsyncEpisode)) AsyncStats {
	cfg.fill()
	if len(envs) == 0 {
		panic("rl: TrainAsync needs at least one environment")
	}
	if episodes <= 0 {
		return AsyncStats{}
	}

	srv := paramserver.New(learner.Policy.CloneForInference())
	srv.OnPublish = cfg.OnPublish
	// The staleness bound actors consult: fixed at K, or a shared dynamic
	// bound starting at K that the learner adjusts from observed lag.
	bound := paramserver.NewDynBound(cfg.Staleness)

	type actorReport struct {
		maxLag    uint64
		refetches uint64
	}
	reports := make([]actorReport, len(envs))
	ch := make(chan AsyncEpisode, cfg.Queue)
	var tickets atomic.Int64
	var wg sync.WaitGroup
	for w := range envs {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.Seed + 1000*int64(w+1)))
			// Per-actor logits buffer for packed inference: snapshots pack
			// their weight panels once per publish (paramserver.Snapshot.Packed)
			// and every actor episode reuses this one output buffer, so the
			// sampling hot path allocates nothing in steady state.
			var logits nn.Mat
			var client *paramserver.Client
			if cfg.AdaptStaleness {
				client = srv.NewClientDyn(bound)
			} else {
				client = srv.NewClient(cfg.Staleness)
			}
			defer func() {
				reports[w] = actorReport{maxLag: client.MaxLag(), refetches: client.Refetches()}
			}()
			for seq := 0; ; seq++ {
				if tickets.Add(1) > int64(episodes) {
					return
				}
				snap, lag := client.Snapshot()
				packed := snap.Packed()
				choose := func(s State) int {
					packed.InferVec(s.Features, &logits)
					return sampleFrom(nn.MaskedSoftmax(logits.Data, s.Mask), rng)
				}
				traj := RunEpisode(envs[w], choose, cfg.MaxSteps)
				e := AsyncEpisode{Traj: traj, Worker: w, Seq: seq, Version: snap.Version, Lag: lag}
				if after != nil {
					e.Out = after(w, seq, traj)
				}
				ch <- e
			}
		}(w)
	}

	startUpdates := learner.Updates
	var stats AsyncStats
	var winLag uint64
	winEpisodes := 0
	consumed := 0
learn:
	for received := 0; received < episodes; received++ {
		var e AsyncEpisode
		select {
		case e = <-ch:
		case <-ctx.Done():
			break learn
		}
		consumed++
		// Consumption-time staleness: how many versions the learner published
		// between this episode's snapshot and now (collection lag plus queue
		// aging) — the direct measure of the learner outpacing the actors,
		// and the quantity the DropStale check bounds.
		consumeLag := srv.Version() - e.Version
		switch {
		case consumeLag > uint64(cfg.Staleness) && cfg.WeightStale:
			e.Traj.Weight = math.Pow(cfg.StaleDecay, float64(consumeLag-uint64(cfg.Staleness)))
			e.Weighted = true
			stats.Weighted++
			if learner.Observe(e.Traj) {
				srv.Publish(learner.Policy.CloneForInference(), learner.Updates)
			}
		case consumeLag > uint64(cfg.Staleness) && cfg.DropStale:
			e.Dropped = true
			stats.Dropped++
		default:
			if learner.Observe(e.Traj) {
				srv.Publish(learner.Policy.CloneForInference(), learner.Updates)
			}
		}
		if cfg.AdaptStaleness {
			winLag += consumeLag
			winEpisodes++
			if winEpisodes >= cfg.AdaptWindow {
				k := bound.Get()
				// Episodes arriving ≥ K/2 versions old mean the learner is
				// publishing faster than actors deliver: tighten so actors
				// refetch sooner and training data stays near-on-policy.
				// Episodes arriving ≤ K/4 old mean publishes are rare: relax
				// back toward the configured ceiling.
				if 2*winLag >= uint64(k)*uint64(winEpisodes) && k > cfg.MinStaleness {
					bound.Set(k - 1)
					stats.Tightened++
				} else if 4*winLag <= uint64(k)*uint64(winEpisodes) && k < cfg.Staleness {
					bound.Set(k + 1)
					stats.Loosened++
				}
				winLag, winEpisodes = 0, 0
			}
		}
		if onEpisode != nil {
			onEpisode(e)
		}
	}
	// On a normal return every collected episode holds a ticket ≤ episodes
	// and has been consumed above, so no actor is blocked on the queue and
	// they all exit at their next ticket draw. On cancellation, exhaust the
	// ticket supply so no actor starts another episode, then drain (and
	// discard) in-flight trajectories until every actor has exited — an
	// actor blocked on the queue send must be unblocked before wg.Wait can
	// return.
	tickets.Store(int64(episodes))
	drained := make(chan struct{})
	go func() { wg.Wait(); close(drained) }()
drain:
	for {
		select {
		case <-ch:
		case <-drained:
			break drain
		}
	}

	stats.Episodes = consumed
	stats.Updates = learner.Updates - startUpdates
	stats.Publishes = srv.Stats().Publishes
	stats.FinalStaleness = bound.Get()
	for _, r := range reports {
		if r.maxLag > stats.MaxLag {
			stats.MaxLag = r.maxLag
		}
		stats.Refetches += r.refetches
	}
	return stats
}
