package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"handsfree/internal/catalog"
	"handsfree/internal/cost"
	"handsfree/internal/query"
)

func TestHistogramSelectivityUniform(t *testing.T) {
	// Uniform values 0..999, so P(v < 500) ≈ 0.5.
	values := make([]int64, 10000)
	rng := rand.New(rand.NewSource(1))
	for i := range values {
		values[i] = rng.Int63n(1000)
	}
	h := BuildHistogram(values, 32, 4)
	if got := h.Selectivity(query.Lt, 500); math.Abs(got-0.5) > 0.05 {
		t.Fatalf("P(v<500) = %v, want ≈ 0.5", got)
	}
	if got := h.Selectivity(query.Ge, 900); math.Abs(got-0.1) > 0.05 {
		t.Fatalf("P(v>=900) = %v, want ≈ 0.1", got)
	}
	if got := h.Selectivity(query.Eq, 123); math.Abs(got-0.001) > 0.002 {
		t.Fatalf("P(v=123) = %v, want ≈ 0.001", got)
	}
}

func TestHistogramMCVsCaptureSkew(t *testing.T) {
	// 60% of rows hold value 7; the MCV list should capture that exactly.
	var values []int64
	for i := 0; i < 6000; i++ {
		values = append(values, 7)
	}
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 4000; i++ {
		values = append(values, rng.Int63n(100))
	}
	h := BuildHistogram(values, 16, 4)
	if got := h.Selectivity(query.Eq, 7); math.Abs(got-0.6) > 0.02 {
		t.Fatalf("P(v=7) = %v, want ≈ 0.6", got)
	}
}

func TestHistogramEdgeCases(t *testing.T) {
	h := BuildHistogram(nil, 8, 4)
	if h.Selectivity(query.Eq, 1) != 0 {
		t.Fatal("empty histogram should estimate 0")
	}
	one := BuildHistogram([]int64{42}, 8, 0)
	if got := one.Selectivity(query.Eq, 42); got < 0.5 {
		t.Fatalf("single-value histogram P(v=42) = %v, want high", got)
	}
	if got := one.Selectivity(query.Lt, 0); got != 0 {
		t.Fatalf("P(v<0) = %v, want 0", got)
	}
}

// Property: selectivities are within [0,1] and LE is monotone in v.
func TestHistogramProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	f := func(seed int64, n uint8) bool {
		r := rand.New(rand.NewSource(seed))
		vals := make([]int64, int(n)+2)
		for i := range vals {
			vals[i] = r.Int63n(50)
		}
		h := BuildHistogram(vals, 8, 3)
		prev := -1.0
		for v := int64(-5); v <= 55; v += 5 {
			s := h.Selectivity(query.Le, v)
			if s < 0 || s > 1 {
				return false
			}
			if s < prev-1e-9 {
				return false
			}
			prev = s
			for _, op := range []query.CmpOp{query.Eq, query.Lt, query.Gt, query.Ge, query.Ne} {
				x := h.Selectivity(op, v)
				if x < -1e-9 || x > 1+1e-9 {
					return false
				}
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 100, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// Property: complementary operators sum to 1: P(<v) + P(>=v) = 1.
func TestHistogramComplement(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	vals := make([]int64, 5000)
	for i := range vals {
		vals[i] = rng.Int63n(200)
	}
	h := BuildHistogram(vals, 32, 8)
	for v := int64(0); v < 200; v += 7 {
		lt := h.Selectivity(query.Lt, v)
		ge := h.Selectivity(query.Ge, v)
		if math.Abs(lt+ge-1) > 1e-6 {
			t.Fatalf("P(<%d)+P(>=%d) = %v, want 1", v, v, lt+ge)
		}
	}
}

func testFixture(t *testing.T) (*catalog.Catalog, *Stats, *query.Query) {
	t.Helper()
	cat := catalog.New()
	for _, tbl := range []*catalog.Table{
		{Name: "title", Rows: 1000, Columns: []catalog.Column{{Name: "id"}, {Name: "production_year"}, {Name: "kind_id"}}},
		{Name: "movie_companies", Rows: 5000, Columns: []catalog.Column{{Name: "id"}, {Name: "movie_id"}, {Name: "company_id"}}},
		{Name: "company_name", Rows: 200, Columns: []catalog.Column{{Name: "id"}, {Name: "country_code"}}},
	} {
		if err := cat.AddTable(tbl); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(4))
	st := NewStats()
	mkCol := func(n int, domain int64) []int64 {
		v := make([]int64, n)
		for i := range v {
			v[i] = rng.Int63n(domain)
		}
		return v
	}
	seq := func(n int) []int64 {
		v := make([]int64, n)
		for i := range v {
			v[i] = int64(i)
		}
		return v
	}
	st.Analyze("title", map[string][]int64{
		"id": seq(1000), "production_year": mkCol(1000, 130), "kind_id": mkCol(1000, 7),
	}, 32, 4)
	st.Analyze("movie_companies", map[string][]int64{
		"id": seq(5000), "movie_id": mkCol(5000, 1000), "company_id": mkCol(5000, 200),
	}, 32, 4)
	st.Analyze("company_name", map[string][]int64{
		"id": seq(200), "country_code": mkCol(200, 50),
	}, 32, 4)

	q := &query.Query{
		Relations: []query.Relation{
			{Table: "title", Alias: "t"},
			{Table: "movie_companies", Alias: "mc"},
			{Table: "company_name", Alias: "cn"},
		},
		Joins: []query.Join{
			{LeftAlias: "mc", LeftCol: "movie_id", RightAlias: "t", RightCol: "id"},
			{LeftAlias: "mc", LeftCol: "company_id", RightAlias: "cn", RightCol: "id"},
		},
		Filters: []query.Filter{
			{Alias: "t", Column: "production_year", Op: query.Lt, Value: 65},
		},
	}
	return cat, st, q
}

func TestEstimatorBaseCard(t *testing.T) {
	cat, st, q := testFixture(t)
	e := NewEstimator(cat, st)
	// production_year uniform over 130 values; < 65 keeps ≈ half.
	got := e.BaseCard(q, "t")
	if math.Abs(got-500) > 75 {
		t.Fatalf("BaseCard(t) = %v, want ≈ 500", got)
	}
	// Unfiltered: full table.
	if got := e.BaseCard(q, "mc"); got != 5000 {
		t.Fatalf("BaseCard(mc) = %v, want 5000", got)
	}
}

func TestEstimatorJoinCard(t *testing.T) {
	cat, st, q := testFixture(t)
	e := NewEstimator(cat, st)
	// mc ⋈ t on movie_id=id: sel = 1/max(ndv) = 1/1000.
	// card ≈ 5000 × 500 / 1000 = 2500.
	sub := q.Rel("t") | q.Rel("mc")
	got := cost.SubsetCard(q, e, sub)
	if got < 1500 || got > 3500 {
		t.Fatalf("SubsetCard(t,mc) = %v, want ≈ 2500", got)
	}
	// Cross product: no join predicate between t and cn.
	cross := q.Rel("t") | q.Rel("cn")
	crossCard := cost.SubsetCard(q, e, cross)
	if crossCard < 80000 {
		t.Fatalf("cross product card = %v, want ≈ 100000", crossCard)
	}
}

func TestEstimatorMonotoneInFilters(t *testing.T) {
	cat, st, q := testFixture(t)
	e := NewEstimator(cat, st)
	before := e.BaseCard(q, "t")
	q.Filters = append(q.Filters, query.Filter{Alias: "t", Column: "kind_id", Op: query.Eq, Value: 3})
	after := e.BaseCard(q, "t")
	if after > before {
		t.Fatalf("adding a filter increased the estimate: %v → %v", before, after)
	}
}

func TestOracleDeterminism(t *testing.T) {
	cat, st, q := testFixture(t)
	e := NewEstimator(cat, st)
	o1 := NewOracle(e, 42)
	o2 := NewOracle(e, 42)
	sub := q.AllRels()
	if cost.SubsetCard(q, o1, sub) != cost.SubsetCard(q, o2, sub) {
		t.Fatal("oracle is not deterministic for equal seeds")
	}
	o3 := NewOracle(e, 43)
	if cost.SubsetCard(q, o1, sub) == cost.SubsetCard(q, o3, sub) {
		t.Fatal("different seeds produced identical truth (suspicious)")
	}
}

func TestOracleSystematicPerEdge(t *testing.T) {
	cat, st, q := testFixture(t)
	e := NewEstimator(cat, st)
	o := NewOracle(e, 7)
	j := q.Joins[0]
	a := o.TrueJoinSelectivity(q, j)
	// Same edge with sides swapped must err identically.
	swapped := query.Join{LeftAlias: j.RightAlias, LeftCol: j.RightCol, RightAlias: j.LeftAlias, RightCol: j.LeftCol}
	b := o.TrueJoinSelectivity(q, swapped)
	if a != b {
		t.Fatalf("edge error not symmetric: %v vs %v", a, b)
	}
}

func TestOracleErrorCompoundsWithJoins(t *testing.T) {
	cat, st, q := testFixture(t)
	e := NewEstimator(cat, st)
	// Average q-error over seeds should grow with subset size.
	var small, large float64
	n := 50
	for seed := int64(0); seed < int64(n); seed++ {
		o := NewOracle(e, seed)
		small += math.Log(qError(o, q, q.Rel("t")|q.Rel("mc")))
		large += math.Log(qError(o, q, q.AllRels()))
	}
	if large <= small {
		t.Fatalf("q-error did not compound: 2-way %v vs 3-way %v (mean log)", small/float64(n), large/float64(n))
	}
}

// qError is the q-error between the oracle's estimator and its truth for
// a subset: max(est/true, true/est) ≥ 1.
func qError(o *Oracle, q *query.Query, s query.RelSet) float64 {
	est, truth := cost.SubsetCard(q, o.Est, s), cost.SubsetCard(q, o, s)
	return max(est/truth, truth/est)
}

func TestOracleBoundsRespected(t *testing.T) {
	cat, st, q := testFixture(t)
	e := NewEstimator(cat, st)
	for seed := int64(0); seed < 30; seed++ {
		o := NewOracle(e, seed)
		if c := o.TrueBaseCard(q, "t"); c < 1 || c > 1000 {
			t.Fatalf("seed %d: TrueBaseCard(t) = %v outside [1, rows]", seed, c)
		}
		if s := o.TrueJoinSelectivity(q, q.Joins[0]); s <= 0 || s > 1 {
			t.Fatalf("seed %d: join selectivity %v outside (0,1]", seed, s)
		}
	}
}

func TestUnfilteredBaseCardExact(t *testing.T) {
	cat, st, q := testFixture(t)
	e := NewEstimator(cat, st)
	o := NewOracle(e, 99)
	// No filters on mc → truth equals the known row count exactly.
	if got := o.TrueBaseCard(q, "mc"); got != 5000 {
		t.Fatalf("TrueBaseCard(mc) = %v, want exactly 5000", got)
	}
}
