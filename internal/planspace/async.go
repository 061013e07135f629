package planspace

import (
	"context"
	"runtime"

	"handsfree/internal/rl"
)

// TrainAsync trains agent over the environment with the asynchronous
// actor-learner split (rl.TrainAsync): cfg.Actors replicas of base
// continuously collect episodes against lock-free policy snapshots while the
// learner drains trajectories, applies policy-batch updates, and
// republishes. onEpisode (optional) observes every consumed episode in
// consumption order — a scheduling-dependent order; Train is the
// deterministic round-synchronous alternative.
//
// The configured Reward must be a pure function of the outcome (CostReward
// and LatencyReward are), exactly as for Replica-based parallel collection.
// A zero cfg.Seed draws the actors' seed from the learner's SnapshotSeed
// counter, so successive calls on one learner never replay each other's
// sampling streams. The replicas' execution counters are folded back into
// base when training returns, so §4-style timeout statistics survive async
// collection.
func TrainAsync(base *Env, agent *rl.Reinforce, episodes int, cfg rl.AsyncConfig,
	onEpisode func(i int, rec EpisodeRecord)) rl.AsyncStats {
	return TrainAsyncCtx(context.Background(), base, agent, episodes, cfg, onEpisode)
}

// TrainAsyncCtx is TrainAsync under a request-scoped context: cancellation
// stops the learner, drains the actors, and returns early with
// AsyncStats.Episodes < episodes (see rl.TrainAsyncCtx). The replicas'
// execution counters are folded back into base in every case.
func TrainAsyncCtx(ctx context.Context, base *Env, agent *rl.Reinforce, episodes int, cfg rl.AsyncConfig,
	onEpisode func(i int, rec EpisodeRecord)) rl.AsyncStats {
	if cfg.Actors < 1 {
		// Same default rl.TrainAsync documents: the replica count must be
		// fixed here, before the environments are built.
		cfg.Actors = runtime.GOMAXPROCS(0)
	}
	if cfg.MaxSteps == 0 {
		cfg.MaxSteps = base.maxSteps()
	}
	if cfg.Seed == 0 {
		cfg.Seed = agent.SnapshotSeed()
	}
	replicas := make([]*Env, cfg.Actors)
	envs := make([]rl.Env, cfg.Actors)
	for w := 0; w < cfg.Actors; w++ {
		replicas[w] = base.Replica(w, cfg.Actors)
		envs[w] = replicas[w]
	}

	i := 0
	stats := rl.TrainAsyncCtx(ctx, agent, envs, episodes, cfg,
		func(w, seq int, traj rl.Trajectory) any {
			return EpisodeRecord{
				Query: replicas[w].Current(),
				Traj:  traj,
				Out:   replicas[w].Last,
			}
		},
		func(e rl.AsyncEpisode) {
			if onEpisode != nil {
				onEpisode(i, e.Out.(EpisodeRecord))
			}
			i++
		})
	for _, r := range replicas {
		base.Executions += r.Executions
		base.TimedOutCount += r.TimedOutCount
		r.Executions, r.TimedOutCount = 0, 0
	}
	return stats
}
