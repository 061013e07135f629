package query

import (
	"strings"
	"testing"
)

func demoQuery() *Query {
	return &Query{
		Name: "demo",
		Relations: []Relation{
			{Table: "title", Alias: "t"},
			{Table: "movie_companies", Alias: "mc"},
			{Table: "company_name", Alias: "cn"},
		},
		Joins: []Join{
			{LeftAlias: "mc", LeftCol: "movie_id", RightAlias: "t", RightCol: "id"},
			{LeftAlias: "mc", LeftCol: "company_id", RightAlias: "cn", RightCol: "id"},
		},
		Filters: []Filter{
			{Alias: "t", Column: "production_year", Op: Gt, Value: 100},
			{Alias: "cn", Column: "country_code", Op: Eq, Value: 3},
		},
		Aggregates: []Aggregate{{Kind: AggCount}},
	}
}

func TestValidateAcceptsWellFormed(t *testing.T) {
	if err := demoQuery().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejectsBadReferences(t *testing.T) {
	q := demoQuery()
	q.Joins = append(q.Joins, Join{LeftAlias: "zz", LeftCol: "id", RightAlias: "t", RightCol: "id"})
	if err := q.Validate(); err == nil {
		t.Fatal("join with undeclared alias accepted")
	}

	q2 := demoQuery()
	q2.Filters = append(q2.Filters, Filter{Alias: "zz", Column: "x", Op: Eq, Value: 1})
	if err := q2.Validate(); err == nil {
		t.Fatal("filter with undeclared alias accepted")
	}

	q3 := demoQuery()
	q3.Relations = append(q3.Relations, Relation{Table: "title", Alias: "t"})
	if err := q3.Validate(); err == nil {
		t.Fatal("duplicate alias accepted")
	}
}

func TestConnected(t *testing.T) {
	q := demoQuery()
	if !q.Connected() {
		t.Fatal("demo query should be connected")
	}
	q.Relations = append(q.Relations, Relation{Table: "keyword", Alias: "k"})
	if q.Connected() {
		t.Fatal("query with isolated relation should be disconnected")
	}
}

func TestJoinsBetween(t *testing.T) {
	q := demoQuery()
	left := q.Rel("t")
	right := q.Rel("mc") | q.Rel("cn")
	js := q.JoinsBetween(left, right)
	if len(js) != 1 {
		t.Fatalf("JoinsBetween = %v, want exactly the t–mc join", js)
	}
	if js[0].LeftCol != "movie_id" {
		t.Fatalf("unexpected join %v", js[0])
	}
	if !q.HasJoinBetween(right, left) || q.HasJoinBetween(left, q.Rel("cn")) {
		t.Fatal("HasJoinBetween disagrees with JoinsBetween")
	}
	// Joins entirely inside one side are excluded.
	if got := q.JoinsBetween(q.AllRels(), 0); len(got) != 0 {
		t.Fatalf("JoinsBetween(all, none) = %v, want empty", got)
	}
}

func TestSQLRendering(t *testing.T) {
	q := demoQuery()
	sql := q.SQL()
	for _, want := range []string{
		"SELECT COUNT(*)",
		"FROM title AS t, movie_companies AS mc, company_name AS cn",
		"mc.movie_id = t.id",
		"t.production_year > 100",
		"cn.country_code = 3",
	} {
		if !strings.Contains(sql, want) {
			t.Fatalf("SQL %q missing %q", sql, want)
		}
	}
}

func TestSQLGroupBy(t *testing.T) {
	q := demoQuery()
	q.GroupBys = []GroupBy{{Alias: "cn", Column: "country_code"}}
	q.Aggregates = []Aggregate{{Kind: AggMin, Alias: "t", Column: "production_year"}}
	sql := q.SQL()
	if !strings.Contains(sql, "GROUP BY cn.country_code") {
		t.Fatalf("SQL %q missing GROUP BY", sql)
	}
	if !strings.Contains(sql, "MIN(t.production_year)") {
		t.Fatalf("SQL %q missing aggregate", sql)
	}
}

func TestKeyCanonical(t *testing.T) {
	q1 := demoQuery()
	q2 := demoQuery()
	// Reorder joins and swap one join's sides: the key must not change.
	q2.Joins = []Join{
		{LeftAlias: "cn", LeftCol: "id", RightAlias: "mc", RightCol: "company_id"},
		{LeftAlias: "mc", LeftCol: "movie_id", RightAlias: "t", RightCol: "id"},
	}
	if q1.Key() != q2.Key() {
		t.Fatalf("keys differ for logically identical queries:\n%s\n%s", q1.Key(), q2.Key())
	}
	q2.Filters[0].Value = 101
	if q1.Key() == q2.Key() {
		t.Fatal("keys equal for different filters")
	}
}

func TestFiltersOn(t *testing.T) {
	q := demoQuery()
	if got := q.FiltersOn("t"); len(got) != 1 || got[0].Column != "production_year" {
		t.Fatalf("FiltersOn(t) = %v", got)
	}
	if got := q.FiltersOn("mc"); len(got) != 0 {
		t.Fatalf("FiltersOn(mc) = %v, want empty", got)
	}
}

func TestAdjacency(t *testing.T) {
	q := demoQuery()
	adj := q.Adjacency()
	tt, mc, cn := q.Rel("t"), q.Rel("mc"), q.Rel("cn")
	if adj[0] != mc || adj[1] != tt|cn || adj[2] != mc {
		t.Fatalf("adjacency wrong: %v", adj)
	}
	if got := adj.Neighbors(tt); got != mc {
		t.Fatalf("Neighbors(t) = %b, want mc", got)
	}
}

func TestCmpOpString(t *testing.T) {
	cases := map[CmpOp]string{Eq: "=", Lt: "<", Le: "<=", Gt: ">", Ge: ">=", Ne: "<>"}
	for op, want := range cases {
		if op.String() != want {
			t.Fatalf("%v.String() = %q, want %q", int(op), op.String(), want)
		}
	}
}
