package planspace

import (
	"context"

	"handsfree/internal/query"
	"handsfree/internal/rl"
)

// Replica returns an independent copy of the environment for parallel
// episode collection: its own RNG stream (derived from the worker index)
// and an episode cursor staggered so `workers` replicas sweep the workload
// with minimal overlap. The planner, space, latency model, and query set
// are shared — they are read-only during planning and execution. The
// configured Reward must be a pure function of the outcome when replicas
// run concurrently (CostReward and LatencyReward are; stateful closures
// like the bootstrapping agent's phase-dependent reward are not).
func (e *Env) Replica(worker, workers int) *Env {
	cfg := e.Cfg
	cfg.Seed = e.Cfg.Seed + 1000*int64(worker+1)
	r := NewEnv(cfg)
	if workers > 0 {
		r.curIdx = (worker*len(cfg.Queries))/workers - 1
	}
	return r
}

// EpisodeRecord is one episode from a parallel collection round: the
// trajectory for the learner plus the environment outcome for reporting.
type EpisodeRecord struct {
	Query *query.Query
	Traj  rl.Trajectory
	Out   Outcome
}

// Collector owns a set of environment replicas for repeated parallel
// episode collection over a base environment.
type Collector struct {
	base     *Env
	replicas []*Env
	envs     []rl.Env
}

// NewCollector builds a collector with the given number of worker replicas.
func NewCollector(base *Env, workers int) *Collector {
	workers = max(workers, 1)
	c := &Collector{base: base}
	for w := 0; w < workers; w++ {
		r := base.Replica(w, workers)
		c.replicas = append(c.replicas, r)
		c.envs = append(c.envs, r)
	}
	return c
}

// Collect runs `episodes` episodes across the worker replicas, each worker
// stepping a frozen snapshot of the policy (fresh snapshots per call, seeded
// from the learner's SnapshotSeed counter so no call replays an earlier
// call's sampling streams), and returns the merged records in a
// deterministic order. The caller feeds the trajectories to its learner in
// that order — typically one policy-batch per Collect call so updates happen
// exactly as often as in sequential training.
func (c *Collector) Collect(agent *rl.Reinforce, episodes int) []EpisodeRecord {
	workers := len(c.replicas)
	per := rl.SplitEpisodes(episodes, workers)
	policies := make([]func(rl.State) int, workers)
	records := make([][]EpisodeRecord, workers)
	for w := 0; w < workers; w++ {
		policies[w] = agent.PolicySnapshot(agent.SnapshotSeed())
		records[w] = make([]EpisodeRecord, per[w])
	}
	rl.CollectParallel(c.envs, policies, per, c.base.maxSteps(), func(w, ep int, traj rl.Trajectory) {
		records[w][ep] = EpisodeRecord{
			Query: c.replicas[w].Current(),
			Traj:  traj,
			Out:   c.replicas[w].Last,
		}
	})
	// Fold the replicas' execution counters back into the base environment
	// so §4-style timeout statistics survive parallel collection.
	for _, r := range c.replicas {
		c.base.Executions += r.Executions
		c.base.TimedOutCount += r.TimedOutCount
		r.Executions, r.TimedOutCount = 0, 0
	}
	return rl.Interleave(records)
}

// Train runs `episodes` training episodes of agent over base and feeds them
// to the learner. With workers ≤ 1 it is a sequential loop on base itself;
// with workers > 1 a Collector gathers one policy-batch per round from
// frozen snapshots and merges it deterministically, so the policy updates
// exactly as often as in sequential training and a fixed seed and worker
// count reproduce bitwise. onEpisode (optional) observes every episode, in
// learner order, after the learner has seen it. Cancellation is checked
// between episodes (sequential) or rounds (parallel) and returns ctx.Err().
func Train(ctx context.Context, base *Env, agent *rl.Reinforce, episodes, workers int,
	onEpisode func(i int, rec EpisodeRecord)) error {
	if workers <= 1 {
		for i := 0; i < episodes; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			traj := rl.RunEpisode(base, agent.Sample, base.maxSteps())
			agent.Observe(traj)
			if onEpisode != nil {
				onEpisode(i, EpisodeRecord{Query: base.Current(), Traj: traj, Out: base.Last})
			}
		}
		return nil
	}
	collector := NewCollector(base, workers)
	round := max(agent.Cfg.BatchSize, 1)
	for done := 0; done < episodes; {
		if err := ctx.Err(); err != nil {
			return err
		}
		n := min(round, episodes-done)
		for i, rec := range collector.Collect(agent, n) {
			agent.Observe(rec.Traj)
			if onEpisode != nil {
				onEpisode(done+i, rec)
			}
		}
		done += n
	}
	return nil
}
