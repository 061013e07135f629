package planspace

import (
	"testing"

	"handsfree/internal/plancache"
	"handsfree/internal/rl"
)

// TestCollectorDeterministic collects the same parallel round twice against
// identically seeded agents and requires identical outcomes and order.
func TestCollectorDeterministic(t *testing.T) {
	f := fixture(t, 4, 3, 4)
	run := func() []EpisodeRecord {
		env := f.env(StagePrefix(2), CostReward, false)
		agent := rl.NewReinforce(env.ObsDim(), env.ActionDim(), rl.ReinforceConfig{Hidden: []int{16}, Seed: 5})
		return NewCollector(env, 3).Collect(agent, 12)
	}
	a, b := run(), run()
	if len(a) != 12 || len(b) != 12 {
		t.Fatalf("collected %d and %d episodes, want 12", len(a), len(b))
	}
	for i := range a {
		if a[i].Out.Cost != b[i].Out.Cost || a[i].Query.Name != b[i].Query.Name {
			t.Fatalf("episode %d differs across identical collection runs: (%v,%s) vs (%v,%s)",
				i, a[i].Out.Cost, a[i].Query.Name, b[i].Out.Cost, b[i].Query.Name)
		}
		if a[i].Out.Plan == nil {
			t.Fatalf("episode %d has no plan", i)
		}
		if len(a[i].Traj.Steps) == 0 {
			t.Fatalf("episode %d has an empty trajectory", i)
		}
	}
}

// TestCollectorFoldsExecutionCounters runs a latency-executing collection
// and checks the replicas' execution counts fold back into the base env.
func TestCollectorFoldsExecutionCounters(t *testing.T) {
	f := fixture(t, 3, 3, 3)
	env := f.env(StagePrefix(1), LatencyReward, true)
	agent := rl.NewReinforce(env.ObsDim(), env.ActionDim(), rl.ReinforceConfig{Hidden: []int{16}, Seed: 6})
	NewCollector(env, 2).Collect(agent, 8)
	if env.Executions != 8 {
		t.Fatalf("base env folded %d executions, want 8", env.Executions)
	}
}

// TestReplicaIndependentEpisodes checks a replica owns its own episode state.
func TestReplicaIndependentEpisodes(t *testing.T) {
	f := fixture(t, 3, 3, 4)
	base := f.env(StagePrefix(1), CostReward, false)
	rep := base.Replica(1, 2)
	s1 := base.Reset()
	s2 := rep.Reset()
	if base.Current() == rep.Current() {
		t.Fatal("staggered replicas started on the same query")
	}
	if len(s1.Features) != len(s2.Features) {
		t.Fatal("replica observation dimension differs from base")
	}
}

// TestCollectorCacheTransparent: parallel collection over the plan-space
// MDP must return identical episodes with and without the plan cache
// (completion memoization is pure), whether the cache starts cold or
// pre-warmed by an earlier run, and repeated workload sweeps must be served
// from cache.
func TestCollectorCacheTransparent(t *testing.T) {
	f := fixture(t, 4, 3, 4)
	run := func(cache *plancache.Cache) []EpisodeRecord {
		env := NewEnv(Config{
			Space:   f.space,
			Stages:  StagePrefix(2),
			Planner: f.planner,
			Latency: f.lat,
			Queries: f.queries,
			Reward:  CostReward,
			Cache:   cache,
			Seed:    3,
		})
		agent := rl.NewReinforce(env.ObsDim(), env.ActionDim(), rl.ReinforceConfig{Hidden: []int{16}, Seed: 5})
		collector := NewCollector(env, 3)
		var out []EpisodeRecord
		for round := 0; round < 3; round++ {
			out = append(out, collector.Collect(agent, 12)...)
		}
		return out
	}
	plain := run(nil)
	cache := plancache.New(plancache.Config{Capacity: 4096, Shards: 8})
	for _, cached := range [][]EpisodeRecord{run(cache), run(cache)} { // cold, then warm
		if len(plain) != len(cached) {
			t.Fatalf("episode counts differ: %d vs %d", len(plain), len(cached))
		}
		for i := range plain {
			if plain[i].Out.Cost != cached[i].Out.Cost || plain[i].Query.Name != cached[i].Query.Name {
				t.Fatalf("episode %d differs with cache enabled: (%v,%s) vs (%v,%s)",
					i, plain[i].Out.Cost, plain[i].Query.Name, cached[i].Out.Cost, cached[i].Query.Name)
			}
			if plain[i].Out.Plan.Signature() != cached[i].Out.Plan.Signature() {
				t.Fatalf("episode %d plan differs with cache enabled", i)
			}
		}
	}
	st := cache.Stats()
	if st.Hits == 0 {
		t.Fatalf("cache never hit across repeated workload sweeps: %+v", st)
	}
}
