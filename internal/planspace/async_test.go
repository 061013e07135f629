package planspace

import (
	"testing"

	"handsfree/internal/rl"
)

// TestTrainAsyncCollectsAndLearns: the async split over the plan-space MDP
// must honor the episode budget, deliver complete outcomes for every
// workload query, update the learner, and respect the staleness bound.
func TestTrainAsyncCollectsAndLearns(t *testing.T) {
	f := fixture(t, 4, 3, 4)
	env := f.env(StagePrefix(2), CostReward, false)
	agent := rl.NewReinforce(env.ObsDim(), env.ActionDim(), rl.ReinforceConfig{Hidden: []int{16}, BatchSize: 8, Seed: 5})
	n := 0
	seen := map[string]int{}
	stats := TrainAsync(env, agent, 32, rl.AsyncConfig{Actors: 3, Staleness: 2}, func(i int, rec EpisodeRecord) {
		if i != n {
			t.Errorf("episode index %d, want %d", i, n)
		}
		n++
		if rec.Out.Plan == nil || rec.Query == nil || rec.Out.Cost <= 0 {
			t.Errorf("episode %d incomplete: plan=%v cost=%v", i, rec.Out.Plan, rec.Out.Cost)
			return
		}
		seen[rec.Query.Name]++
		if len(rec.Traj.Steps) == 0 {
			t.Errorf("episode %d has an empty trajectory", i)
		}
	})
	if n != 32 || stats.Episodes != 32 {
		t.Fatalf("observed %d episodes (stats %d), want 32", n, stats.Episodes)
	}
	for _, q := range f.queries {
		if seen[q.Name] == 0 {
			t.Fatalf("query %s never served during async collection", q.Name)
		}
	}
	if agent.Updates == 0 {
		t.Fatal("learner never updated")
	}
	if stats.MaxLag > 2 {
		t.Fatalf("staleness bound violated: MaxLag %d > 2", stats.MaxLag)
	}
}

// TestTrainAsyncFoldsExecutionCounters: §4-style timeout statistics must
// survive async collection exactly as they survive the synchronous rounds.
func TestTrainAsyncFoldsExecutionCounters(t *testing.T) {
	f := fixture(t, 3, 3, 3)
	env := f.env(StagePrefix(1), LatencyReward, true)
	agent := rl.NewReinforce(env.ObsDim(), env.ActionDim(), rl.ReinforceConfig{Hidden: []int{16}, Seed: 6})
	TrainAsync(env, agent, 8, rl.AsyncConfig{Actors: 2, Staleness: 2}, nil)
	if env.Executions != 8 {
		t.Fatalf("base env folded %d executions, want 8", env.Executions)
	}
}
