package query_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"handsfree/internal/cost"
	"handsfree/internal/query"
)

// fuzzQuery builds a query of 1–MaxRelations relations with random join
// edges (self-edges and parallel edges included) from a seed.
func fuzzQuery(rng *rand.Rand, n, edges int) *query.Query {
	q := &query.Query{}
	for i := range n {
		q.Relations = append(q.Relations, query.Relation{Table: "t", Alias: fmt.Sprintf("a%d", i)})
	}
	for range edges {
		l, r := rng.Intn(n), rng.Intn(n)
		q.Joins = append(q.Joins, query.Join{
			LeftAlias: q.Relations[l].Alias, LeftCol: fmt.Sprintf("c%d", rng.Intn(3)),
			RightAlias: q.Relations[r].Alias, RightCol: fmt.Sprintf("c%d", rng.Intn(3)),
		})
	}
	return q
}

// aliasSet is the map form of a relation set, the reference the RelSet
// operations are checked against.
func aliasSet(q *query.Query, s query.RelSet) map[string]bool {
	m := map[string]bool{}
	for _, r := range q.Relations {
		if s&q.Rel(r.Alias) != 0 {
			m[r.Alias] = true
		}
	}
	return m
}

func refJoinsBetween(q *query.Query, left, right map[string]bool) []query.Join {
	var out []query.Join
	for _, j := range q.Joins {
		if (left[j.LeftAlias] && right[j.RightAlias]) || (left[j.RightAlias] && right[j.LeftAlias]) {
			out = append(out, j)
		}
	}
	return out
}

func refConnected(q *query.Query) bool {
	seen := map[string]bool{q.Relations[0].Alias: true}
	for grew := true; grew; {
		grew = false
		for _, j := range q.Joins {
			if seen[j.LeftAlias] != seen[j.RightAlias] {
				seen[j.LeftAlias], seen[j.RightAlias] = true, true
				grew = true
			}
		}
	}
	return len(seen) == len(q.Relations)
}

// refSubsetCard multiplies over the member map, visiting relations in
// q.Relations order and predicates in q.Joins order.
func refSubsetCard(q *query.Query, src cost.CardSource, members map[string]bool) float64 {
	card := 1.0
	for _, r := range q.Relations {
		if members[r.Alias] {
			card *= src.BaseCard(q, r.Alias)
		}
	}
	for _, j := range q.Joins {
		if members[j.LeftAlias] && members[j.RightAlias] {
			card *= src.JoinSelectivity(q, j)
		}
	}
	return max(card, 1)
}

// fakeCards derives cardinalities and selectivities from names, with
// fractional parts so multiplication order would show in the last bits.
type fakeCards struct{}

func (fakeCards) BaseCard(q *query.Query, alias string) float64 {
	return 1.1 + float64(len(alias)*37%101) + float64(alias[len(alias)-1])/7
}

func (fakeCards) JoinSelectivity(q *query.Query, j query.Join) float64 {
	return 1 / (1.3 + float64(len(j.LeftCol)+int(j.RightAlias[len(j.RightAlias)-1])%13))
}

func (fakeCards) TableRows(string) int64 { return 1000 }

// FuzzRelSet: on generated queries, the RelSet forms of JoinsBetween,
// HasJoinBetween, Connected and cost.SubsetCard agree with map-based
// references.
func FuzzRelSet(f *testing.F) {
	f.Add(int64(1), uint8(4), uint8(3), uint64(0b0011), uint64(0b1100))
	f.Add(int64(2), uint8(64), uint8(80), ^uint64(0)>>1, uint64(1)<<63)
	f.Add(int64(3), uint8(1), uint8(0), uint64(1), uint64(0))
	f.Fuzz(func(t *testing.T, seed int64, n, edges uint8, lbits, rbits uint64) {
		rng := rand.New(rand.NewSource(seed))
		q := fuzzQuery(rng, 1+int(n)%query.MaxRelations, int(edges)%128)
		if err := q.Validate(); err != nil {
			t.Fatal(err)
		}
		all := q.AllRels()
		left, right := query.RelSet(lbits)&all, query.RelSet(rbits)&all
		lm, rm := aliasSet(q, left), aliasSet(q, right)

		want := refJoinsBetween(q, lm, rm)
		if got := q.JoinsBetween(left, right); !slices.Equal(got, want) {
			t.Fatalf("JoinsBetween(%b, %b) = %v, want %v", left, right, got, want)
		}
		if got := q.HasJoinBetween(left, right); got != (len(want) > 0) {
			t.Fatalf("HasJoinBetween(%b, %b) = %v, want %v", left, right, got, len(want) > 0)
		}
		if got, want := q.Connected(), refConnected(q); got != want {
			t.Fatalf("Connected() = %v, want %v", got, want)
		}
		for _, s := range []query.RelSet{left, right, left | right, all} {
			if got, want := cost.SubsetCard(q, fakeCards{}, s), refSubsetCard(q, fakeCards{}, aliasSet(q, s)); got != want {
				t.Fatalf("SubsetCard(%b) = %v, want %v", s, got, want)
			}
		}
	})
}
