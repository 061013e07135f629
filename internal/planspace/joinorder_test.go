package planspace

import (
	"bytes"
	"context"
	"math"
	"slices"
	"testing"

	"handsfree/internal/featurize"
	"handsfree/internal/nn"
	"handsfree/internal/optimizer"
	"handsfree/internal/plan"
	"handsfree/internal/plancache"
	"handsfree/internal/query"
	"handsfree/internal/rl"
)

// The tests in this file drive ReJOIN (§3): the environment restricted to
// join ordering (StagePrefix(1)) under the cost reward, trained by a
// REINFORCE learner.

// joinOrderFixture is the ReJOIN test workload (training seed 7).
func joinOrderFixture(t *testing.T, nQueries, minRel, maxRel int) fx {
	t.Helper()
	return workloadFixture(t, 7, nQueries, minRel, maxRel)
}

// joinOrderEnv builds ReJOIN's MDP over the fixture workload.
func (f fx) joinOrderEnv() *Env {
	return NewEnv(Config{
		Space:   f.space,
		Stages:  StagePrefix(1),
		Planner: f.planner,
		Queries: f.queries,
		Seed:    1,
	})
}

// joinOrderAgent pairs a fresh ReJOIN environment with a learner.
func (f fx) joinOrderAgent(cfg rl.ReinforceConfig) (*Env, *rl.Reinforce) {
	env := f.joinOrderEnv()
	return env, rl.NewReinforce(env.ObsDim(), env.ActionDim(), cfg)
}

// greedyPlan plans q with the learner's greedy policy.
func greedyPlan(env *Env, agent *rl.Reinforce, q *query.Query) Outcome {
	out, _ := env.GreedyRollout(context.Background(), q, agent.Greedy)
	return out
}

// train runs episodes training episodes with the given worker count and
// returns their records in learner order.
func train(t *testing.T, env *Env, agent *rl.Reinforce, episodes, workers int) []EpisodeRecord {
	t.Helper()
	var recs []EpisodeRecord
	if err := Train(context.Background(), env, agent, episodes, workers, func(i int, rec EpisodeRecord) {
		recs = append(recs, rec)
	}); err != nil {
		t.Fatal(err)
	}
	if len(recs) != episodes {
		t.Fatalf("Train reported %d episodes, want %d", len(recs), episodes)
	}
	return recs
}

// greedyRatio is the geometric mean over the workload of the greedy plan's
// cost relative to the traditional optimizer's.
func greedyRatio(t *testing.T, f fx, env *Env, agent *rl.Reinforce) float64 {
	t.Helper()
	var logSum float64
	for _, q := range f.queries {
		planned, err := f.planner.Plan(q)
		if err != nil {
			t.Fatal(err)
		}
		logSum += math.Log(greedyPlan(env, agent, q).Cost / planned.Cost)
	}
	return math.Exp(logSum / float64(len(f.queries)))
}

func TestEpisodeCyclesThroughWorkload(t *testing.T) {
	f := joinOrderFixture(t, 3, 4, 4)
	env, agent := f.joinOrderAgent(rl.ReinforceConfig{Hidden: []int{16}, Seed: 3})
	seen := map[string]int{}
	for _, rec := range train(t, env, agent, 6, 1) {
		seen[rec.Query.Name]++
	}
	for _, q := range f.queries {
		if seen[q.Name] != 2 {
			t.Fatalf("query %s served %d times in 6 episodes over 3 queries", q.Name, seen[q.Name])
		}
	}
}

// TestConvergenceTowardExpert is the core §3 reproduction at miniature
// scale: after training, ReJOIN's greedy join orders should be close to the
// traditional optimizer's on the training workload, and far better than its
// own untrained policy.
func TestConvergenceTowardExpert(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	f := joinOrderFixture(t, 6, 4, 6)
	env, agent := f.joinOrderAgent(rl.ReinforceConfig{Hidden: []int{64, 32}, BatchSize: 16, LR: 2e-3, Seed: 4})

	expert := map[string]float64{}
	for _, q := range f.queries {
		planned, err := f.planner.PlanWith(q, optimizer.Greedy)
		if err != nil {
			t.Fatal(err)
		}
		expert[q.Name] = planned.Cost
	}
	avgRatio := func() float64 {
		total := 0.0
		for _, q := range f.queries {
			total += greedyPlan(env, agent, q).Cost / expert[q.Name]
		}
		return total / float64(len(f.queries))
	}

	before := avgRatio()
	train(t, env, agent, 4000, 1)
	after := avgRatio()
	t.Logf("avg cost ratio vs expert: before=%.2f after=%.2f", before, after)
	if after > before {
		t.Fatalf("training made the policy worse: %.3f → %.3f", before, after)
	}
	if after > 2.0 {
		t.Fatalf("after 4000 episodes the policy is still %.2f× the expert", after)
	}
}

func TestGreedyPlanDeterministic(t *testing.T) {
	f := joinOrderFixture(t, 3, 4, 5)
	env, agent := f.joinOrderAgent(rl.ReinforceConfig{Hidden: []int{16}, Seed: 5})
	train(t, env, agent, 50, 1)
	q := f.queries[0]
	if c1, c2 := greedyPlan(env, agent, q).Cost, greedyPlan(env, agent, q).Cost; c1 != c2 {
		t.Fatalf("greedy inference not deterministic: %v vs %v", c1, c2)
	}
}

// TestSameSeedTrainingIsReproducible: training is a pure function of its
// seeds, so reruns of one configuration must end with bitwise-identical
// policies. The state's cardinality block multiplies floats over relation
// sets; any iteration order not fixed by the query (a map's, say) makes
// reruns drift apart in the last bits and then in the learned weights.
func TestSameSeedTrainingIsReproducible(t *testing.T) {
	f := joinOrderFixture(t, 8, 4, 8)
	var first []byte
	for run := 0; run < 8; run++ {
		env, agent := f.joinOrderAgent(rl.ReinforceConfig{Hidden: []int{32}, Seed: 3})
		train(t, env, agent, 400, 1)
		data, err := agent.MarshalPolicy()
		if err != nil {
			t.Fatal(err)
		}
		if run == 0 {
			first = data
		} else if !bytes.Equal(data, first) {
			t.Fatalf("run %d ended with a different policy than run 0", run)
		}
	}
}

func TestDisallowCrossMasksDisconnectedPairs(t *testing.T) {
	f := joinOrderFixture(t, 4, 5, 5)
	env := f.joinOrderEnv()
	env.Cfg.DisallowCross = true
	agent := rl.NewReinforce(env.ObsDim(), env.ActionDim(), rl.ReinforceConfig{Hidden: []int{16}, Seed: 6})
	for _, rec := range train(t, env, agent, 40, 1) {
		if rec.Out.Plan == nil {
			t.Fatal("no plan")
		}
		if plan.CrossProduct(rec.Out.Plan) {
			t.Fatal("cross product under DisallowCross on a connected query")
		}
	}
}

// TestEnginePlanEquivalence is the plan-level engine property: one trained
// policy, loaded into learners running the reference and the blocked
// compute engines, must emit identical greedy join orders at identical costs
// on the seed workload. Greedy rollouts are 1×d products, which the blocked
// engine routes through its bitwise reference fallback, so the comparison
// is exact equality, not tolerance. This is the in-process counterpart of
// the CI matrix leg that re-runs the whole suite under
// HANDSFREE_ENGINE=blocked.
func TestEnginePlanEquivalence(t *testing.T) {
	f := joinOrderFixture(t, 6, 4, 6)
	env, trainer := f.joinOrderAgent(rl.ReinforceConfig{Hidden: []int{32}, Engine: nn.EngineReference, Seed: 5})
	train(t, env, trainer, 120, 1)
	data, err := trainer.MarshalPolicy()
	if err != nil {
		t.Fatal(err)
	}

	load := func(e nn.Engine, seed int64) *rl.Reinforce {
		ag := rl.NewReinforce(env.ObsDim(), env.ActionDim(), rl.ReinforceConfig{Hidden: []int{32}, Engine: e, Seed: seed})
		if err := ag.UnmarshalPolicy(data); err != nil {
			t.Fatal(err)
		}
		return ag
	}
	ref := load(nn.EngineReference, 8)
	blk := load(nn.EngineBlocked, 9)
	if got := blk.Policy.Engine(); got != nn.EngineBlocked {
		t.Fatalf("loaded policy engine = %v, want blocked", got)
	}

	for _, q := range f.queries {
		or, ob := greedyPlan(env, ref, q), greedyPlan(env, blk, q)
		if or.Cost != ob.Cost {
			t.Fatalf("query %s: reference cost %v, blocked cost %v", q.Name, or.Cost, ob.Cost)
		}
		if fr, fb := plan.Format(or.Plan), plan.Format(ob.Plan); fr != fb {
			t.Fatalf("query %s: plans diverge across engines\nreference:\n%s\nblocked:\n%s", q.Name, fr, fb)
		}
	}
}

// TestF32TrainingConvergesOnSeedWorkload is the system-level half of the
// f32 tolerance-parity contract (the per-step bound lives in nn and rl):
// training ReJOIN entirely in float32 on the seed workload must reach final
// plan quality within the same 1.6× tolerance band the async-vs-sync test
// uses against the f64 reference. The f32 trajectory diverges from f64's
// after the first rounded softmax, so the comparison is outcome-level, not
// per-step.
func TestF32TrainingConvergesOnSeedWorkload(t *testing.T) {
	f := joinOrderFixture(t, 4, 4, 5)
	const episodes = 240

	refEnv, ref := f.joinOrderAgent(rl.ReinforceConfig{Hidden: []int{32}, BatchSize: 8, Precision: nn.F64, Seed: 2})
	train(t, refEnv, ref, episodes, 1)
	refRatio := greedyRatio(t, f, refEnv, ref)

	f32Env, f32 := f.joinOrderAgent(rl.ReinforceConfig{Hidden: []int{32}, BatchSize: 8, Precision: nn.F32, Seed: 2})
	if f32.Policy.Precision() != nn.F32 {
		t.Fatal("learner did not build an f32 policy")
	}
	train(t, f32Env, f32, episodes, 1)
	f32Ratio := greedyRatio(t, f, f32Env, f32)

	t.Logf("greedy cost ratio vs optimizer: f64 %.3f, f32 %.3f", refRatio, f32Ratio)
	if f32Ratio > 1.6*refRatio {
		t.Fatalf("f32 final plan quality %.3f not within tolerance of f64 %.3f", f32Ratio, refRatio)
	}
}

// parallelCosts trains a fresh learner with 4 collection workers and returns
// the per-episode costs in learner order.
func parallelCosts(t *testing.T, f fx) []float64 {
	t.Helper()
	env, agent := f.joinOrderAgent(rl.ReinforceConfig{Hidden: []int{32}, BatchSize: 8, Seed: 2})
	var costs []float64
	for i, rec := range train(t, env, agent, 32, 4) {
		if rec.Out.Plan == nil || rec.Query == nil || rec.Out.Cost <= 0 {
			t.Fatalf("episode %d incomplete: plan=%v cost=%v", i, rec.Out.Plan, rec.Out.Cost)
		}
		costs = append(costs, rec.Out.Cost)
	}
	return costs
}

// TestParallelCollectionDeterministic runs the same parallel training twice:
// worker envs and policy snapshots are seeded, and the merge order is a pure
// function of worker/episode indices, so the two runs must be identical.
func TestParallelCollectionDeterministic(t *testing.T) {
	f := joinOrderFixture(t, 4, 4, 5)
	if a, b := parallelCosts(t, f), parallelCosts(t, f); !slices.Equal(a, b) {
		t.Fatalf("identical parallel runs diverged:\n%v\n%v", a, b)
	}
}

// TestParallelCollectionCoversWorkload checks that staggered worker cursors
// serve every workload query during a parallel round.
func TestParallelCollectionCoversWorkload(t *testing.T) {
	f := joinOrderFixture(t, 4, 4, 4)
	env, agent := f.joinOrderAgent(rl.ReinforceConfig{Hidden: []int{16}, BatchSize: 8, Seed: 3})
	seen := map[string]int{}
	for _, rec := range train(t, env, agent, 16, 4) {
		seen[rec.Query.Name]++
	}
	for _, q := range f.queries {
		if seen[q.Name] == 0 {
			t.Fatalf("query %s never served during parallel collection", q.Name)
		}
	}
}

// TestParallelCollectionTrainsPolicy verifies that the learner actually
// updates from parallel-collected trajectories.
func TestParallelCollectionTrainsPolicy(t *testing.T) {
	f := joinOrderFixture(t, 4, 4, 4)
	env, agent := f.joinOrderAgent(rl.ReinforceConfig{Hidden: []int{16}, BatchSize: 8, Seed: 4})
	train(t, env, agent, 40, 4)
	if agent.Updates == 0 {
		t.Fatal("no policy updates after 40 parallel episodes with batch size 8")
	}
}

// TestTrainAsyncConvergesLikeSync: on the seed workload, async training must
// reach the synchronous path's final plan quality within tolerance — the
// bounded staleness may cost some sample efficiency but must not break
// convergence. The budget lets both paths converge: at a few hundred
// episodes a single run's greedy ratio still swings by 10× with the
// initialization and the actor scheduling, in either direction.
func TestTrainAsyncConvergesLikeSync(t *testing.T) {
	f := joinOrderFixture(t, 4, 4, 5)
	const episodes = 960
	cfg := rl.ReinforceConfig{Hidden: []int{32}, BatchSize: 8, Seed: 2}

	syncEnv, syncAgent := f.joinOrderAgent(cfg)
	train(t, syncEnv, syncAgent, episodes, 1)
	syncRatio := greedyRatio(t, f, syncEnv, syncAgent)

	asyncEnv, asyncAgent := f.joinOrderAgent(cfg)
	TrainAsync(asyncEnv, asyncAgent, episodes, rl.AsyncConfig{Actors: 4, Staleness: 4}, nil)
	asyncRatio := greedyRatio(t, f, asyncEnv, asyncAgent)

	t.Logf("greedy cost ratio vs optimizer: sync %.3f, async %.3f", syncRatio, asyncRatio)
	if asyncRatio > 1.6*syncRatio {
		t.Fatalf("async final plan quality %.3f not within tolerance of sync %.3f", asyncRatio, syncRatio)
	}
}

// episodeKeys renders episode records as (query, plan) keys in order.
func episodeKeys(recs []EpisodeRecord) []string {
	keys := make([]string, len(recs))
	for i, rec := range recs {
		keys[i] = rec.Query.Name + ":" + rec.Out.Plan.Signature()
	}
	return keys
}

// TestSuccessiveTrainingCallsDrawFreshSeeds: two successive parallel or
// async training calls on one learner must not replay the first call's
// action-sampling streams. The batch size exceeds every call's episode
// count, so the policy is identical across the calls and the replicas
// restart on the same queries: only fresh snapshot seeds can make the
// second call's episodes differ from the first's.
func TestSuccessiveTrainingCallsDrawFreshSeeds(t *testing.T) {
	f := joinOrderFixture(t, 4, 5, 6)
	cfg := rl.ReinforceConfig{Hidden: []int{16}, BatchSize: 256, Seed: 2}

	env, agent := f.joinOrderAgent(cfg)
	first, second := train(t, env, agent, 16, 4), train(t, env, agent, 16, 4)
	if slices.Equal(episodeKeys(first), episodeKeys(second)) {
		t.Fatal("second parallel training call replayed the first call's sampling streams")
	}

	// One actor keeps the async episode order deterministic, so equal
	// sequences can only mean a replayed seed.
	env, agent = f.joinOrderAgent(cfg)
	asyncRun := func() []EpisodeRecord {
		var recs []EpisodeRecord
		TrainAsync(env, agent, 16, rl.AsyncConfig{Actors: 1}, func(_ int, rec EpisodeRecord) {
			recs = append(recs, rec)
		})
		return recs
	}
	if slices.Equal(episodeKeys(asyncRun()), episodeKeys(asyncRun())) {
		t.Fatal("second async training call replayed the first call's sampling streams")
	}
}

func TestEpisodeTerminatesWithValidPlan(t *testing.T) {
	f := joinOrderFixture(t, 4, 4, 5)
	env, agent := f.joinOrderAgent(rl.ReinforceConfig{Hidden: []int{32}, Seed: 2})
	for ep, rec := range train(t, env, agent, 20, 1) {
		if rec.Out.Plan == nil {
			t.Fatalf("episode %d produced no plan", ep)
		}
		if rec.Out.Cost <= 0 {
			t.Fatalf("episode %d cost = %v", ep, rec.Out.Cost)
		}
		if leaves := plan.Leaves(rec.Out.Plan); len(leaves) != len(rec.Query.Relations) {
			t.Fatalf("episode %d: %d leaves for %d relations", ep, len(leaves), len(rec.Query.Relations))
		}
	}
}

// TestCheckpointRoundTrip: a fresh learner restored from a trained
// learner's checkpoint must reproduce its greedy join orders exactly.
func TestCheckpointRoundTrip(t *testing.T) {
	f := joinOrderFixture(t, 4, 4, 5)
	env, agent := f.joinOrderAgent(rl.ReinforceConfig{Hidden: []int{32}, Seed: 2})
	train(t, env, agent, 100, 1)
	data, err := agent.MarshalPolicy()
	if err != nil {
		t.Fatal(err)
	}

	env2, restored := f.joinOrderAgent(rl.ReinforceConfig{Hidden: []int{32}, Seed: 99})
	if err := restored.UnmarshalPolicy(data); err != nil {
		t.Fatal(err)
	}
	for _, q := range f.queries {
		want, got := greedyPlan(env, agent, q), greedyPlan(env2, restored, q)
		if got.Cost != want.Cost || got.Plan.Signature() != want.Plan.Signature() {
			t.Fatalf("query %s: restored cost %v, want %v", q.Name, got.Cost, want.Cost)
		}
	}
}

// TestCheckpointRejectsWrongDims: a checkpoint trained over a smaller
// relation space must not load into a learner sized for a larger one.
func TestCheckpointRejectsWrongDims(t *testing.T) {
	f := joinOrderFixture(t, 2, 4, 4)
	learner := func(maxRels int) *rl.Reinforce {
		env := NewEnv(Config{
			Space:   featurize.NewSpace(maxRels, f.est),
			Stages:  StagePrefix(1),
			Planner: f.planner,
			Queries: f.queries,
			Seed:    1,
		})
		return rl.NewReinforce(env.ObsDim(), env.ActionDim(), rl.ReinforceConfig{Hidden: []int{16}, Seed: 1})
	}
	data, err := learner(4).MarshalPolicy()
	if err != nil {
		t.Fatal(err)
	}
	if err := learner(6).UnmarshalPolicy(data); err == nil {
		t.Fatal("checkpoint with mismatched dimensions accepted")
	}
}

// TestF32CheckpointRoundTripOnAgent: an f32 ReJOIN learner must save and
// restore through the versioned checkpoint format, which carries the
// precision, and the restored learner must plan like the original.
func TestF32CheckpointRoundTripOnAgent(t *testing.T) {
	f := joinOrderFixture(t, 3, 4, 4)
	cfg := rl.ReinforceConfig{Hidden: []int{16}, BatchSize: 4, Precision: nn.F32, Seed: 3}
	env, agent := f.joinOrderAgent(cfg)
	train(t, env, agent, 12, 1)
	data, err := agent.MarshalPolicy()
	if err != nil {
		t.Fatal(err)
	}

	cfg.Seed = 4
	env2, restored := f.joinOrderAgent(cfg)
	if err := restored.UnmarshalPolicy(data); err != nil {
		t.Fatal(err)
	}
	if restored.Policy.Precision() != nn.F32 {
		t.Fatalf("restored precision %v, want f32", restored.Policy.Precision())
	}
	for _, q := range f.queries {
		o1, o2 := greedyPlan(env, agent, q), greedyPlan(env2, restored, q)
		if o1.Plan == nil || o2.Plan == nil || o1.Cost != o2.Cost {
			t.Fatalf("restored f32 learner plans %s at cost %v, original %v", q.Name, o2.Cost, o1.Cost)
		}
	}
}

// TestParallelCollectionCacheTransparent: parallel ReJOIN training with the
// plan cache enabled must produce bitwise-identical episode costs to
// training without it, whether the cache starts cold or pre-warmed by an
// earlier run, and the cache must actually serve hits.
func TestParallelCollectionCacheTransparent(t *testing.T) {
	f := joinOrderFixture(t, 4, 4, 5)
	run := func(cache *plancache.Cache) []float64 {
		env := NewEnv(Config{
			Space:   f.space,
			Stages:  StagePrefix(1),
			Planner: f.planner,
			Queries: f.queries,
			Cache:   cache,
			Seed:    1,
		})
		agent := rl.NewReinforce(env.ObsDim(), env.ActionDim(), rl.ReinforceConfig{Hidden: []int{32}, BatchSize: 8, Seed: 2})
		var costs []float64
		for _, rec := range train(t, env, agent, 32, 4) {
			costs = append(costs, rec.Out.Cost)
		}
		return costs
	}
	plain := run(nil)
	cache := plancache.New(plancache.Config{Capacity: 4096, Shards: 8})
	cold := run(cache)
	warm := run(cache)
	for i := range plain {
		if plain[i] != cold[i] {
			t.Fatalf("episode %d: cost %v uncached vs %v cold-cached", i, plain[i], cold[i])
		}
		if plain[i] != warm[i] {
			t.Fatalf("episode %d: cost %v uncached vs %v warm-cached", i, plain[i], warm[i])
		}
	}
	if st := cache.Stats(); st.Hits == 0 {
		t.Fatalf("cache never hit during parallel collection: %+v", st)
	}
}

// TestTrainAsyncProducesCompleteEpisodes: every async episode must carry a
// completed plan with a positive cost for a workload query, the episode
// budget must be honored exactly, and the learner must actually update.
func TestTrainAsyncProducesCompleteEpisodes(t *testing.T) {
	f := joinOrderFixture(t, 4, 4, 5)
	env, agent := f.joinOrderAgent(rl.ReinforceConfig{Hidden: []int{32}, BatchSize: 8, Seed: 2})
	var recs []EpisodeRecord
	TrainAsync(env, agent, 48, rl.AsyncConfig{Actors: 4, Staleness: 2}, func(_ int, rec EpisodeRecord) {
		recs = append(recs, rec)
	})
	if len(recs) != 48 {
		t.Fatalf("TrainAsync reported %d episodes, want 48", len(recs))
	}
	seen := map[string]int{}
	for i, rec := range recs {
		if rec.Out.Plan == nil || rec.Query == nil || rec.Out.Cost <= 0 {
			t.Fatalf("episode %d incomplete: plan=%v cost=%v", i, rec.Out.Plan, rec.Out.Cost)
		}
		seen[rec.Query.Name]++
	}
	for _, q := range f.queries {
		if seen[q.Name] == 0 {
			t.Fatalf("query %s never served during async collection", q.Name)
		}
	}
	if agent.Updates == 0 {
		t.Fatal("no policy updates after 48 async episodes with batch size 8")
	}
}
