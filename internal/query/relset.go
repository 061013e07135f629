package query

import (
	"iter"
	"math/bits"
)

// MaxRelations is the widest query a RelSet can describe; Validate rejects
// queries with more relations.
const MaxRelations = 64

// RelSet is a set of one query's relations: bit i stands for q.Relations[i].
// It is the one relation-set representation of the planning stack — plan
// nodes, the join enumerators, cardinality estimation, featurization and
// expert-trace replay all use it — so set algebra is word arithmetic and
// iterating a set visits relations in the query's declaration order, which
// keeps every computation over a set reproducible.
type RelSet uint64

// Len returns the number of relations in the set.
func (s RelSet) Len() int { return bits.OnesCount64(uint64(s)) }

// All yields the set's relation indices in ascending order.
func (s RelSet) All() iter.Seq[int] {
	return func(yield func(int) bool) {
		for ; s != 0; s &= s - 1 {
			if !yield(bits.TrailingZeros64(uint64(s))) {
				return
			}
		}
	}
}

// Rel returns the singleton set of the relation with the given alias, or the
// empty set when the query has no such relation. The lookup scans
// q.Relations, so it needs no per-query index and is safe for any number of
// concurrent readers.
func (q *Query) Rel(alias string) RelSet {
	for i, r := range q.Relations {
		if r.Alias == alias {
			return 1 << uint(i)
		}
	}
	return 0
}

// AllRels returns the set of every relation of the query.
func (q *Query) AllRels() RelSet { return 1<<uint(len(q.Relations)) - 1 }

// JoinGraph is a query's join graph as adjacency sets: g[i] is the set of
// relations joined with relation i.
type JoinGraph []RelSet

// Neighbors returns the relations outside s that some relation in s joins
// with.
func (g JoinGraph) Neighbors(s RelSet) RelSet {
	var out RelSet
	for i := range s.All() {
		out |= g[i]
	}
	return out &^ s
}
