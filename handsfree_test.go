package handsfree

import (
	"bytes"
	"context"
	"strings"
	"testing"
)

// testSystem builds a small service (scale 0.05 plus opts) and returns it
// with its substrate.
func testSystem(t testing.TB, opts ...Option) (*Service, *System) {
	t.Helper()
	svc, err := New(append([]Option{WithScale(0.05)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	return svc, svc.System()
}

func TestNewDefaults(t *testing.T) {
	_, sys := testSystem(t)
	if sys.DB == nil || sys.Planner == nil || sys.Latency == nil || sys.Engine == nil {
		t.Fatal("New left components nil")
	}
	if n := sys.DB.Catalog.NumTables(); n != 21 {
		t.Fatalf("catalog has %d tables, want 21", n)
	}
}

func TestPlanSQLEndToEnd(t *testing.T) {
	svc, _ := testSystem(t)
	planned, err := svc.PlanSQL(context.Background(), `SELECT COUNT(*) FROM title t, movie_companies mc
		WHERE mc.movie_id = t.id AND t.production_year > 50`)
	if err != nil {
		t.Fatal(err)
	}
	if planned.Cost <= 0 {
		t.Fatalf("cost %v", planned.Cost)
	}
	explain := ExplainPlan(planned.Plan)
	if !strings.Contains(explain, "title") || !strings.Contains(explain, "movie_companies") {
		t.Fatalf("explain output missing relations:\n%s", explain)
	}
}

func TestExecuteMatchesPlanShape(t *testing.T) {
	svc, sys := testSystem(t)
	q, err := ParseSQL(`SELECT COUNT(*) FROM title t WHERE t.production_year > 100`)
	if err != nil {
		t.Fatal(err)
	}
	planned, err := svc.ExpertPlan(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	res, work, err := sys.Execute(q, planned.Root)
	if err != nil {
		t.Fatal(err)
	}
	if res.N != 1 {
		t.Fatalf("aggregate result rows = %d, want 1", res.N)
	}
	if work.TuplesRead == 0 {
		t.Fatal("no work recorded")
	}
}

func TestReJOINAgentAPI(t *testing.T) {
	svc, sys := testSystem(t)
	queries, err := sys.Workload.Training(4, 4, 5, 3)
	if err != nil {
		t.Fatal(err)
	}
	agent, err := svc.NewReJOINAgent(queries, ReJOINConfig{Seed: 1, Hidden: []int{32}})
	if err != nil {
		t.Fatal(err)
	}
	agent.Train(50)
	node, cost := agent.Plan(queries[0])
	if node == nil || cost <= 0 {
		t.Fatalf("agent produced plan=%v cost=%v", node, cost)
	}
}

func TestReJOINAgentRejectsOversizedQueries(t *testing.T) {
	svc, sys := testSystem(t)
	queries, err := sys.Workload.Training(2, 6, 6, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.NewReJOINAgent(queries, ReJOINConfig{MaxRelations: 4, Seed: 1}); err == nil {
		t.Fatal("agent accepted queries above MaxRelations")
	}
}

func TestParseSQLErrors(t *testing.T) {
	if _, err := ParseSQL("DROP TABLE title"); err == nil {
		t.Fatal("accepted non-SELECT statement")
	}
}

func TestReJOINAgentTrainAsync(t *testing.T) {
	svc, sys := testSystem(t)
	queries, err := sys.Workload.Training(4, 4, 5, 3)
	if err != nil {
		t.Fatal(err)
	}
	agent, err := svc.NewReJOINAgent(queries, ReJOINConfig{Seed: 1, Hidden: []int{32}})
	if err != nil {
		t.Fatal(err)
	}
	agent.TrainAsync(50, AsyncConfig{Actors: 4, Staleness: 2})
	node, cost := agent.Plan(queries[0])
	if node == nil || cost <= 0 {
		t.Fatalf("async-trained agent produced plan=%v cost=%v", node, cost)
	}
}

func TestPrecisionKnobThreadsToAgents(t *testing.T) {
	svc, sys := testSystem(t, WithPrecision(F32))
	if sys.Precision != F32 {
		t.Fatalf("system precision %v, want f32", sys.Precision)
	}
	queries, err := sys.Workload.Training(3, 4, 5, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Agent inherits the system-wide precision…
	agent, err := svc.NewReJOINAgent(queries, ReJOINConfig{Seed: 1, Hidden: []int{16}})
	if err != nil {
		t.Fatal(err)
	}
	agent.Train(20)
	if node, cost := agent.Plan(queries[0]); node == nil || cost <= 0 {
		t.Fatalf("f32 agent produced plan=%v cost=%v", node, cost)
	}
	// …and a per-agent override beats it.
	f64agent, err := svc.NewReJOINAgent(queries, ReJOINConfig{Seed: 1, Hidden: []int{16}, Precision: F64})
	if err != nil {
		t.Fatal(err)
	}
	f64agent.Train(20)
	if node, cost := f64agent.Plan(queries[0]); node == nil || cost <= 0 {
		t.Fatalf("f64-override agent produced plan=%v cost=%v", node, cost)
	}
}

func TestPlanCacheWarmStartAPI(t *testing.T) {
	ctx := context.Background()
	coldSvc, cold := testSystem(t, WithCache(CacheConfig{}))
	q, err := cold.Workload.ByRelations(6, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := coldSvc.ExpertPlan(ctx, q); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := cold.SavePlanCache(&buf); err != nil {
		t.Fatal(err)
	}

	warmSvc, warm := testSystem(t, WithCache(CacheConfig{}))
	restored, err := warm.LoadPlanCache(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if restored == 0 {
		t.Fatal("no entries restored from the dump")
	}
	q2, err := warm.Workload.ByRelations(6, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := warmSvc.ExpertPlan(ctx, q2); err != nil {
		t.Fatal(err)
	}
	st := warm.CacheStats()
	if st.Hits == 0 {
		t.Fatalf("warm-started system planned without cache hits: %+v", st)
	}

	// Cache disabled → explicit errors, not nil panics.
	_, bare := testSystem(t)
	if err := bare.SavePlanCache(&buf); err == nil {
		t.Fatal("SavePlanCache succeeded without a cache")
	}
	if _, err := bare.LoadPlanCache(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("LoadPlanCache succeeded without a cache")
	}
}

func TestLoadPlanCacheRejectsDifferentSystem(t *testing.T) {
	srcSvc, src := testSystem(t, WithCache(CacheConfig{}))
	q, err := src.Workload.ByRelations(5, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srcSvc.ExpertPlan(context.Background(), q); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := src.SavePlanCache(&buf); err != nil {
		t.Fatal(err)
	}
	// A differently scaled system computes different plans/costs for the
	// same fingerprints: the dump must be refused, not silently served.
	_, other := testSystem(t, WithScale(0.1), WithCache(CacheConfig{}))
	if _, err := other.LoadPlanCache(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("plan-cache dump from a different system configuration loaded without error")
	}
}
