package handsfree

import (
	"context"
	"errors"
	"math"
	"sync"
	"testing"
	"time"

	"handsfree/internal/featurize"
	"handsfree/internal/rl"
)

// testService builds a small service with a training workload attached.
func testService(t *testing.T, opts ...Option) *Service {
	t.Helper()
	svc, err := New(append([]Option{
		WithScale(0.05),
		WithWorkload(4, 4, 5, 3),
	}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	return svc
}

func TestServiceServesExpertBeforeTraining(t *testing.T) {
	svc := testService(t)
	ctx := context.Background()
	if got := svc.Phase(); got != PhaseIdle {
		t.Fatalf("phase before training = %v, want idle", got)
	}
	for _, q := range svc.Queries() {
		res, err := svc.Plan(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		if res.Source != SourceExpert {
			t.Fatalf("untrained service served source %v, want expert", res.Source)
		}
		if res.Plan == nil || res.Cost <= 0 || res.Cost != res.ExpertCost {
			t.Fatalf("bad expert decision: %+v", res)
		}
		if res.PolicyVersion != 0 {
			t.Fatalf("policy version %d before any publish", res.PolicyVersion)
		}
		if !math.IsNaN(res.LearnedCost) {
			t.Fatalf("learned cost %v without a learned rollout", res.LearnedCost)
		}
	}
	if _, err := svc.PlanSQL(ctx, `SELECT COUNT(*) FROM title t WHERE t.production_year > 50`); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Plan(ctx, nil); err == nil {
		t.Fatal("nil query accepted")
	}
	st := svc.LifecycleStats()
	if st.ExpertServed == 0 || st.LearnedServed != 0 || st.Fallbacks != 0 {
		t.Fatalf("serving counters %+v", st)
	}
}

func TestServicePlanHonorsContext(t *testing.T) {
	svc := testService(t)
	q, err := svc.System().Workload.ByRelations(12, 3)
	if err != nil {
		t.Fatal(err)
	}

	// Already-cancelled context: immediate error, no planning.
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := svc.Plan(cancelled, q); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Plan err = %v, want context.Canceled", err)
	}

	// A deadline that expires mid-search: the 12-relation DP sweep takes far
	// longer than 3ms, so the enumeration loop's per-subset check must cut
	// it off and surface context.DeadlineExceeded promptly.
	start := time.Now()
	ctx, cancel2 := context.WithTimeout(context.Background(), 3*time.Millisecond)
	defer cancel2()
	_, err = svc.Plan(ctx, q)
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("deadline Plan err = %v, want context.DeadlineExceeded", err)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("Plan took %v to notice an expired 3ms deadline", elapsed)
	}

	// Without a deadline the same query plans fine.
	if res, err := svc.Plan(context.Background(), q); err != nil || res.Plan == nil {
		t.Fatalf("unbounded Plan: res=%+v err=%v", res, err)
	}
}

// publishRandomPolicy installs a serving layout and publishes an untrained
// (deliberately regressed) policy with matching dimensions — the safeguard's
// worst case, injected without depending on training stochasticity.
func publishRandomPolicy(t testing.TB, svc *Service, seed int64) *rl.Reinforce {
	return publishPolicySized(t, svc, seed, []int{16})
}

// publishPolicySized is publishRandomPolicy with the hidden layout exposed:
// the serving benchmarks publish production-sized policies so the inference
// path carries a realistic share of each Plan call.
func publishPolicySized(t testing.TB, svc *Service, seed int64, hidden []int) *rl.Reinforce {
	t.Helper()
	maxRels := 0
	for _, q := range svc.Queries() {
		if len(q.Relations) > maxRels {
			maxRels = len(q.Relations)
		}
	}
	space := featurize.NewSpace(maxRels, svc.sys.Est)
	sp := newServePool(svc, space, Stages{}, maxRels)
	svc.serve.Store(sp)
	learner := rl.NewReinforce(sp.obsDim, sp.actionDim, rl.ReinforceConfig{
		Hidden: hidden, Precision: F64, Seed: seed,
	})
	svc.publish(learner)
	return learner
}

func TestServiceSafeguardNeverServesRegression(t *testing.T) {
	// FallbackRatio 1.0: the learned plan may only be served when it is at
	// least as cheap as the expert's. A random policy regresses on most
	// queries, so the guard must fire and every served cost must stay
	// bounded by the expert's.
	svc, err := New(WithScale(0.05), WithWorkload(4, 7, 8, 5), WithFallbackRatio(1.0))
	if err != nil {
		t.Fatal(err)
	}
	publishRandomPolicy(t, svc, 99)
	if v := svc.PolicyVersion(); v != 1 {
		t.Fatalf("policy version %d after one publish", v)
	}

	ctx := context.Background()
	for round := 0; round < 3; round++ {
		for _, q := range svc.Queries() {
			res, err := svc.Plan(ctx, q)
			if err != nil {
				t.Fatal(err)
			}
			if res.Plan == nil || res.Cost <= 0 {
				t.Fatalf("service served no plan: %+v", res)
			}
			// The safeguard invariant: never serve worse than ratio × expert.
			if res.Cost > svc.FallbackRatio()*res.ExpertCost*(1+1e-12) {
				t.Fatalf("served cost %.1f breaches %.2f× expert %.1f (source %v)",
					res.Cost, svc.FallbackRatio(), res.ExpertCost, res.Source)
			}
			if res.Source == SourceFallback && res.Cost != res.ExpertCost {
				t.Fatalf("fallback decision did not serve the expert plan: %+v", res)
			}
			if res.PolicyVersion != 1 {
				t.Fatalf("decision consulted version %d, want 1", res.PolicyVersion)
			}
		}
	}
	st := svc.LifecycleStats()
	if st.Fallbacks == 0 {
		t.Fatalf("random policy never triggered the regression guard: %+v", st)
	}
}

func TestServiceSafeguardDisabled(t *testing.T) {
	// Ratio ≤ 0 disables the guard: the learned plan is served regardless
	// of regression (when the rollout produces one).
	svc, err := New(WithScale(0.05), WithWorkload(3, 4, 5, 5), WithFallbackRatio(0))
	if err != nil {
		t.Fatal(err)
	}
	publishRandomPolicy(t, svc, 41)
	learned := 0
	for _, q := range svc.Queries() {
		res, err := svc.Plan(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		if res.Source == SourceLearned {
			learned++
		}
	}
	if learned == 0 {
		t.Fatal("guard disabled but no learned plan was ever served")
	}
}

// quickLifecycle is a budget small enough for test runs while still passing
// through every phase.
func quickLifecycle() LifecycleConfig {
	return LifecycleConfig{
		Hidden:          []int{32},
		DemoSweeps:      1,
		PretrainBatches: 6,
		CostEpisodes:    48,
		EvalEvery:       24,
		LatencyEpisodes: 16,
		Actors:          2,
		Seed:            7,
	}
}

func TestServiceLifecyclePhasesInOrder(t *testing.T) {
	svc := testService(t)
	ctx := context.Background()
	if err := svc.StartTraining(ctx, quickLifecycle()); err != nil {
		t.Fatal(err)
	}
	if err := svc.StartTraining(ctx, quickLifecycle()); err == nil {
		t.Fatal("second StartTraining accepted while the first is running")
	}
	if err := svc.WaitTraining(ctx); err != nil {
		t.Fatal(err)
	}
	st := svc.LifecycleStats()
	if st.Phase != PhaseDone {
		t.Fatalf("final phase %v, want done (%+v)", st.Phase, st)
	}
	want := []struct{ from, to LifecyclePhase }{
		{PhaseIdle, PhaseDemonstration},
		{PhaseDemonstration, PhaseCostTraining},
		{PhaseCostTraining, PhaseLatencyTuning},
		{PhaseLatencyTuning, PhaseDone},
	}
	if len(st.Transitions) != len(want) {
		t.Fatalf("transitions %+v, want %d of them", st.Transitions, len(want))
	}
	for i, w := range want {
		got := st.Transitions[i]
		if got.From != w.from || got.To != w.to || got.Reason == "" {
			t.Fatalf("transition %d = %+v, want %v→%v with a reason", i, got, w.from, w.to)
		}
	}
	if st.Demonstrations != len(svc.Queries()) {
		t.Fatalf("demonstrated %d queries, want %d", st.Demonstrations, len(svc.Queries()))
	}
	if st.CostEpisodes != 48 || st.LatencyEpisodes != 16 {
		t.Fatalf("episode accounting %+v", st)
	}
	if st.PolicyVersion == 0 {
		t.Fatal("lifecycle finished without publishing a policy")
	}
	// A trained service serves learned plans (bounded by the safeguard) for
	// its workload without error.
	for _, q := range svc.Queries() {
		res, err := svc.Plan(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		if res.PolicyVersion == 0 {
			t.Fatalf("post-training decision consulted no policy: %+v", res)
		}
	}
}

func TestServiceLifecycleCancellation(t *testing.T) {
	svc := testService(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancel before it can get anywhere
	if err := svc.StartTraining(ctx, quickLifecycle()); err != nil {
		t.Fatal(err)
	}
	err := svc.WaitTraining(context.Background())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled lifecycle err = %v, want context.Canceled", err)
	}
	if got := svc.Phase(); got != PhaseStopped {
		t.Fatalf("phase after cancellation = %v, want stopped", got)
	}
	// The service still serves (expert path) and can start a fresh lifecycle.
	if _, err := svc.Plan(context.Background(), svc.Queries()[0]); err != nil {
		t.Fatal(err)
	}
	if err := svc.StartTraining(context.Background(), quickLifecycle()); err != nil {
		t.Fatal(err)
	}
	if err := svc.WaitTraining(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestServiceConcurrentPlanDuringTraining hammers Plan from several
// goroutines while the lifecycle trains and hot-swaps policies, asserting
// no torn reads (every decision is a complete, safeguard-bounded plan) and
// per-goroutine monotone policy versions. Run with -race.
func TestServiceConcurrentPlanDuringTraining(t *testing.T) {
	svc := testService(t, WithCache(CacheConfig{Capacity: 1 << 14}))
	ratio := svc.FallbackRatio()
	ctx := context.Background()
	if err := svc.StartTraining(ctx, quickLifecycle()); err != nil {
		t.Fatal(err)
	}

	const hammers = 4
	var wg sync.WaitGroup
	errCh := make(chan error, hammers)
	stop := make(chan struct{})
	for g := 0; g < hammers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			queries := svc.Queries()
			var lastVersion uint64
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				q := queries[(g+i)%len(queries)]
				res, err := svc.Plan(ctx, q)
				if err != nil {
					errCh <- err
					return
				}
				if res.Plan == nil || res.Cost <= 0 || math.IsNaN(res.Cost) || math.IsInf(res.Cost, 0) {
					errCh <- errors.New("torn or empty planning decision")
					return
				}
				if ratio > 0 && res.Cost > ratio*res.ExpertCost*(1+1e-12) {
					errCh <- errors.New("safeguard breached under concurrency")
					return
				}
				if res.PolicyVersion < lastVersion {
					errCh <- errors.New("policy version went backwards")
					return
				}
				lastVersion = res.PolicyVersion
			}
		}(g)
	}
	if err := svc.WaitTraining(ctx); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	st := svc.LifecycleStats()
	if st.Phase != PhaseDone || st.PolicyVersion == 0 {
		t.Fatalf("lifecycle under load ended %+v", st)
	}
	if st.Plans == 0 {
		t.Fatal("hammer goroutines planned nothing")
	}
}

// TestServiceRolloutHonorsDeadlineMidEpisode drives the learned-rollout
// branch of Plan with an expiring deadline: cancellation must surface from
// inside the planspace rollout loop, not only from the expert's enumerator.
func TestServiceRolloutHonorsDeadlineMidEpisode(t *testing.T) {
	svc := testService(t)
	publishRandomPolicy(t, svc, 11)
	q := svc.Queries()[0]
	// Expire the context between the (cached-fast) expert plan and the
	// rollout by pre-warming the expert plan, then using a context that is
	// already at its deadline when the rollout begins.
	if _, err := svc.Plan(context.Background(), q); err != nil {
		t.Fatal(err)
	}
	env := svc.serve.Load().get()
	ctx, cancel := context.WithCancel(context.Background())
	steps := 0
	_, err := env.GreedyRollout(ctx, q, func(st rl.State) int {
		steps++
		cancel() // cancel mid-episode, after the first decision
		return planspaceFirstValid(st)
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("rollout err = %v after %d steps, want context.Canceled", err, steps)
	}
	if steps != 1 {
		t.Fatalf("rollout took %d decisions after cancellation, want exactly 1", steps)
	}
}

func planspaceFirstValid(st rl.State) int {
	for i, ok := range st.Mask {
		if ok {
			return i
		}
	}
	return -1
}

// TestServiceSharedInferenceParity pins the shared-packing serving contract:
// Plan decisions with the per-publish packed policy are bitwise identical to
// the per-call unpacked path, so WithSharedInference can never change what
// the service serves — only how fast it serves it.
func TestServiceSharedInferenceParity(t *testing.T) {
	shared := testService(t, WithFallbackRatio(0))
	unshared := testService(t, WithFallbackRatio(0), WithSharedInference(false))
	publishRandomPolicy(t, shared, 71)
	publishRandomPolicy(t, unshared, 71)

	ctx := context.Background()
	learned := 0
	for i, q := range shared.Queries() {
		resA, err := shared.Plan(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		resB, err := unshared.Plan(ctx, unshared.Queries()[i])
		if err != nil {
			t.Fatal(err)
		}
		if resA.Source != resB.Source ||
			math.Float64bits(resA.Cost) != math.Float64bits(resB.Cost) ||
			math.Float64bits(resA.LearnedCost) != math.Float64bits(resB.LearnedCost) {
			t.Fatalf("query %d: shared (%v, %x) != unshared (%v, %x)",
				i, resA.Source, math.Float64bits(resA.Cost), resB.Source, math.Float64bits(resB.Cost))
		}
		if ExplainPlan(resA.Plan) != ExplainPlan(resB.Plan) {
			t.Fatalf("query %d: shared and unshared plans differ:\n%s\nvs\n%s",
				i, ExplainPlan(resA.Plan), ExplainPlan(resB.Plan))
		}
		if resA.Source == SourceLearned {
			learned++
		}
	}
	if learned == 0 {
		t.Fatal("parity check never exercised the learned-rollout path")
	}
}
