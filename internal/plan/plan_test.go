package plan

import (
	"strings"
	"testing"

	"handsfree/internal/query"
)

func demoQuery() *query.Query {
	return &query.Query{
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
			{Alias: "t", Column: "production_year", Op: query.Gt, Value: 100},
		},
		Aggregates: []query.Aggregate{{Kind: query.AggCount}},
	}
}

func leftDeep(q *query.Query, algo JoinAlgo, order ...string) Node {
	var root Node = BuildScan(q, order[0], SeqScan, "")
	for _, a := range order[1:] {
		root = JoinNodes(q, algo, root, BuildScan(q, a, SeqScan, ""))
	}
	return root
}

func TestScanCarriesFilters(t *testing.T) {
	q := demoQuery()
	s := BuildScan(q, "t", SeqScan, "")
	if len(s.Filters) != 1 || s.Filters[0].Column != "production_year" {
		t.Fatalf("scan filters = %v", s.Filters)
	}
	if s.Table != "title" {
		t.Fatalf("scan table = %q", s.Table)
	}
}

func TestJoinNodesAttachesSpanningPreds(t *testing.T) {
	q := demoQuery()
	j := JoinNodes(q, HashJoin, BuildScan(q, "mc", SeqScan, ""), BuildScan(q, "t", SeqScan, ""))
	if len(j.Preds) != 1 || j.Preds[0].LeftCol != "movie_id" {
		t.Fatalf("join preds = %v", j.Preds)
	}
	// Joining the result with cn picks up the mc–cn predicate.
	j2 := JoinNodes(q, HashJoin, j, BuildScan(q, "cn", SeqScan, ""))
	if len(j2.Preds) != 1 || j2.Preds[0].LeftCol != "company_id" {
		t.Fatalf("second join preds = %v", j2.Preds)
	}
}

func TestCrossProductDetection(t *testing.T) {
	q := demoQuery()
	good := leftDeep(q, HashJoin, "t", "mc", "cn")
	if CrossProduct(good) {
		t.Fatal("t–mc–cn left-deep plan should have no cross product")
	}
	// t joined directly with cn has no predicate.
	bad := JoinNodes(q, HashJoin, BuildScan(q, "t", SeqScan, ""), BuildScan(q, "cn", SeqScan, ""))
	if !CrossProduct(bad) {
		t.Fatal("t–cn join should be a cross product")
	}
}

func TestRelsUnion(t *testing.T) {
	q := demoQuery()
	root := leftDeep(q, NestLoop, "t", "mc", "cn")
	if got, want := root.Rels(), q.AllRels(); got != want {
		t.Fatalf("Rels = %b, want %b", got, want)
	}
	sub := JoinNodes(q, HashJoin, BuildScan(q, "cn", SeqScan, ""), BuildScan(q, "mc", SeqScan, ""))
	if got, want := sub.Rels(), q.Rel("mc")|q.Rel("cn"); got != want || want.Len() != 2 {
		t.Fatalf("Rels(cn ⋈ mc) = %b, want %b", got, want)
	}
}

func TestNumJoinsAndLeaves(t *testing.T) {
	q := demoQuery()
	root := leftDeep(q, MergeJoin, "t", "mc", "cn")
	if NumJoins(root) != 2 {
		t.Fatalf("NumJoins = %d, want 2", NumJoins(root))
	}
	ls := Leaves(root)
	if len(ls) != 3 || ls[0].Alias != "t" || ls[2].Alias != "cn" {
		t.Fatalf("leaves = %v", ls)
	}
}

func TestSignatureDistinguishesPhysical(t *testing.T) {
	q := demoQuery()
	a := leftDeep(q, HashJoin, "t", "mc", "cn")
	b := leftDeep(q, NestLoop, "t", "mc", "cn")
	c := leftDeep(q, HashJoin, "mc", "t", "cn")
	if a.Signature() == b.Signature() {
		t.Fatal("different join algorithms share a signature")
	}
	if a.Signature() == c.Signature() {
		t.Fatal("different join orders share a signature")
	}
	if a.Signature() != leftDeep(q, HashJoin, "t", "mc", "cn").Signature() {
		t.Fatal("identical plans have different signatures")
	}
}

func TestFinishAgg(t *testing.T) {
	q := demoQuery()
	root := FinishAgg(q, HashAgg, leftDeep(q, HashJoin, "t", "mc", "cn"))
	agg, ok := root.(*Agg)
	if !ok {
		t.Fatalf("FinishAgg returned %T, want *Agg", root)
	}
	if len(agg.Aggregates) != 1 {
		t.Fatalf("agg count = %d", len(agg.Aggregates))
	}
	// Query without aggregates is returned unchanged.
	q2 := demoQuery()
	q2.Aggregates = nil
	child := leftDeep(q2, HashJoin, "t", "mc", "cn")
	if FinishAgg(q2, HashAgg, child) != child {
		t.Fatal("FinishAgg wrapped a query without aggregation")
	}
}

func TestFormatReadable(t *testing.T) {
	q := demoQuery()
	root := FinishAgg(q, SortAgg, leftDeep(q, HashJoin, "t", "mc", "cn"))
	out := Format(root)
	for _, want := range []string{"SortAgg", "HashJoin", "SeqScan on title", "mc.movie_id = t.id"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Format output missing %q:\n%s", want, out)
		}
	}
}

func TestWalkVisitsAll(t *testing.T) {
	q := demoQuery()
	root := FinishAgg(q, HashAgg, leftDeep(q, HashJoin, "t", "mc", "cn"))
	count := 0
	Walk(root, func(Node) { count++ })
	// Agg + 2 joins + 3 scans.
	if count != 6 {
		t.Fatalf("Walk visited %d nodes, want 6", count)
	}
}
