package sqlparse

import (
	"fmt"
	"strings"
	"testing"

	"handsfree/internal/datagen"
	"handsfree/internal/query"
	"handsfree/internal/workload"
)

func TestParseBasic(t *testing.T) {
	q, err := Parse("SELECT COUNT(*) FROM title AS t, movie_companies mc WHERE mc.movie_id = t.id AND t.production_year > 80;")
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Relations) != 2 || q.Relations[0].Alias != "t" || q.Relations[1].Alias != "mc" {
		t.Fatalf("relations = %v", q.Relations)
	}
	if len(q.Joins) != 1 || q.Joins[0].LeftAlias != "mc" || q.Joins[0].RightCol != "id" {
		t.Fatalf("joins = %v", q.Joins)
	}
	if len(q.Filters) != 1 || q.Filters[0].Op != query.Gt || q.Filters[0].Value != 80 {
		t.Fatalf("filters = %v", q.Filters)
	}
	if len(q.Aggregates) != 1 || q.Aggregates[0].Kind != query.AggCount {
		t.Fatalf("aggregates = %v", q.Aggregates)
	}
}

func TestParseSelectStar(t *testing.T) {
	q, err := Parse("SELECT * FROM title")
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Aggregates) != 0 {
		t.Fatal("SELECT * should have no aggregates")
	}
	if q.Relations[0].Alias != "title" {
		t.Fatalf("default alias = %q, want table name", q.Relations[0].Alias)
	}
}

func TestParseAggregatesAndGroupBy(t *testing.T) {
	q, err := Parse("SELECT cn.country_code, MIN(t.production_year), MAX(t.season_nr) FROM title t, company_name cn WHERE t.id = cn.id GROUP BY cn.country_code")
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Aggregates) != 2 || q.Aggregates[0].Kind != query.AggMin || q.Aggregates[1].Kind != query.AggMax {
		t.Fatalf("aggregates = %v", q.Aggregates)
	}
	if len(q.GroupBys) != 1 || q.GroupBys[0].Column != "country_code" {
		t.Fatalf("group bys = %v", q.GroupBys)
	}
}

func TestParseAllOperators(t *testing.T) {
	q, err := Parse("SELECT * FROM a WHERE a.x = 1 AND a.y < 2 AND a.z <= 3 AND a.u > 4 AND a.v >= 5 AND a.w <> 6")
	if err != nil {
		t.Fatal(err)
	}
	want := []query.CmpOp{query.Eq, query.Lt, query.Le, query.Gt, query.Ge, query.Ne}
	if len(q.Filters) != len(want) {
		t.Fatalf("got %d filters", len(q.Filters))
	}
	for i, f := range q.Filters {
		if f.Op != want[i] {
			t.Fatalf("filter %d op %v, want %v", i, f.Op, want[i])
		}
	}
}

func TestParseNegativeNumber(t *testing.T) {
	q, err := Parse("SELECT * FROM a WHERE a.x > -5")
	if err != nil {
		t.Fatal(err)
	}
	if q.Filters[0].Value != -5 {
		t.Fatalf("value = %d, want -5", q.Filters[0].Value)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"",
		"FROM a",
		"SELECT * FROM",
		"SELECT * FROM a WHERE",
		"SELECT * FROM a WHERE a.x",
		"SELECT * FROM a WHERE a.x ~ 3",
		"SELECT * FROM a WHERE a.x < b.y",  // joins must use =
		"SELECT * FROM a WHERE b.x = 1",    // undeclared alias
		"SELECT MIN(*) FROM a",             // only COUNT(*) allowed
		"SELECT * FROM a GROUP BY",         // missing column
		"SELECT * FROM a; SELECT * FROM b", // trailing input
	}
	for _, sql := range cases {
		if _, err := Parse(sql); err == nil {
			t.Fatalf("accepted invalid SQL %q", sql)
		}
	}
}

// TestParseRejectsTooManyRelations: a relation set has one bit per
// relation, so a FROM list wider than query.MaxRelations is a parse error,
// and the widest one allowed parses.
func TestParseRejectsTooManyRelations(t *testing.T) {
	from := func(n int) string {
		rels := make([]string, n)
		for i := range rels {
			rels[i] = fmt.Sprintf("title t%d", i)
		}
		return "SELECT * FROM " + strings.Join(rels, ", ")
	}
	if _, err := Parse(from(query.MaxRelations)); err != nil {
		t.Fatalf("%d relations: %v", query.MaxRelations, err)
	}
	if _, err := Parse(from(query.MaxRelations + 1)); err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("%d relations: err = %v, want a relation-limit error", query.MaxRelations+1, err)
	}
}

// TestRoundTripWorkload parses the SQL rendered by every named workload
// query and checks logical equivalence via the canonical key.
func TestRoundTripWorkload(t *testing.T) {
	db, err := datagen.Generate(datagen.Config{Seed: 1, Scale: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	w := workload.New(db)
	for _, name := range workload.NamedNames() {
		orig := w.MustNamed(name)
		parsed, err := Parse(orig.SQL())
		if err != nil {
			t.Fatalf("%s: %v\nSQL: %s", name, err, orig.SQL())
		}
		if parsed.Key() != orig.Key() {
			t.Fatalf("%s: round trip changed the query:\n%s\n%s", name, orig.Key(), parsed.Key())
		}
	}
}

func TestParseCaseInsensitiveKeywords(t *testing.T) {
	q, err := Parse("select count(*) from title as t where t.id = 3 group by t.kind_id")
	if err != nil {
		t.Fatal(err)
	}
	if len(q.GroupBys) != 1 || len(q.Aggregates) != 1 {
		t.Fatal("lowercase keywords not handled")
	}
}
