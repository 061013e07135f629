// Package featurize converts optimizer states into the fixed-length vectors
// the paper's neural agents consume. The encoding follows ReJOIN (§3): each
// join subtree is a row vector weighting its relations by 1/2^depth, plus a
// join-graph adjacency block and a per-relation predicate-selectivity block.
//
// Featurization runs once per step of every training episode, so it is a hot
// path. Two mechanisms keep its steady-state allocation down to the feature
// vector itself (which episode trajectories retain and therefore must be
// fresh): PairMask memoizes the per-forest-size action masks on the Space
// (they are pure functions of the forest size), and Scratch carries the
// per-query alias positions and selectivities and the per-episode subtree
// cardinalities that the naive encoding would recompute at every state.
package featurize

import (
	"math"
	"sort"
	"sync"

	"handsfree/internal/cost"
	"handsfree/internal/plan"
	"handsfree/internal/query"
)

// Estimator is the slice of cardinality estimation featurization needs:
// filter selectivities for the predicate block, and the cardinality source
// cost.SubsetCard reads for the per-subtree cardinality block. Both the
// exact histogram estimator (*stats.Estimator) and the sketch-backed one
// (*sketch.Estimator) satisfy it, so the same learned featurization runs on
// either statistics source.
type Estimator interface {
	cost.CardSource
	BaseSelectivity(q *query.Query, alias string) float64
}

// Space is a fixed-size featurization context: it pins the maximum relation
// count so every query in a workload maps into vectors of identical length
// (the network input dimension). A Space is shared read-only by parallel
// collection workers; do not copy it after first use.
type Space struct {
	// MaxRels bounds the number of relations per query.
	MaxRels int
	// Est supplies filter selectivities for the predicate block.
	Est Estimator

	// maskOnce guards the lazily built PairMask cache: masks[k] is the
	// (immutable, shared) mask for a forest of k subtrees.
	maskOnce sync.Once
	masks    [][]bool
}

// NewSpace builds a featurization space.
func NewSpace(maxRels int, est Estimator) *Space {
	return &Space{MaxRels: maxRels, Est: est}
}

// ObsDim is the length of the state vectors: MaxRels² for subtree rows,
// MaxRels² for the join graph, MaxRels for per-relation selectivities, and
// MaxRels for per-subtree estimated cardinalities.
func (s *Space) ObsDim() int {
	return 2*s.MaxRels*s.MaxRels + 2*s.MaxRels
}

// ActionDim is the size of the join-pair action space: all ordered pairs.
func (s *Space) ActionDim() int {
	return s.MaxRels * s.MaxRels
}

// AliasIndex returns the query's aliases in sorted order; the position of an
// alias in this slice is its feature index.
func AliasIndex(q *query.Query) []string {
	out := make([]string, len(q.Relations))
	for i, r := range q.Relations {
		out[i] = r.Alias
	}
	sort.Strings(out)
	return out
}

// Scratch holds the reusable working state of featurization: the alias→index
// map and cached base selectivities of the current query, and a memo of
// subtree cardinalities keyed by relation set. One Scratch belongs to one
// environment (it is not concurrency-safe); call Reset at each episode
// start. The zero value is ready to use.
type Scratch struct {
	q     *query.Query
	names []string
	idx   map[string]int
	sels  []float64
	cards map[query.RelSet]float64
}

// Reset drops per-episode state (the subtree cardinality memo). The
// per-query alias index and selectivity cache survive: they are keyed by
// query pointer and revalidated on use.
func (sc *Scratch) Reset() {
	clear(sc.cards)
}

// prepare returns the alias→feature-index map for q, rebuilding it — and the
// base-selectivity cache aligned with it — only when the query changes. The
// selectivity block of the encoding is constant per query, so caching it here
// removes the per-state estimator walk (and its filter-slice allocations)
// from the rollout hot path.
func (sc *Scratch) prepare(q *query.Query, est Estimator) map[string]int {
	if sc.q == q && sc.idx != nil {
		return sc.idx
	}
	sc.names = sc.names[:0]
	for _, r := range q.Relations {
		sc.names = append(sc.names, r.Alias)
	}
	sort.Strings(sc.names)
	if sc.idx == nil {
		sc.idx = make(map[string]int, len(sc.names))
	} else {
		clear(sc.idx)
	}
	for i, a := range sc.names {
		sc.idx[a] = i
	}
	sc.sels = sc.sels[:0]
	for _, a := range sc.names {
		sc.sels = append(sc.sels, est.BaseSelectivity(q, a))
	}
	sc.q = q
	clear(sc.cards)
	return sc.idx
}

// cardOf returns the estimated cardinality of a subtree, memoized per
// relation set. The memo is cleared per episode and per query, so within an
// episode only newly joined subtrees pay the estimator walk; re-encoding an
// unchanged forest (every state revisits all current roots) is lookup-only.
func (sc *Scratch) cardOf(q *query.Query, est Estimator, n plan.Node) float64 {
	s := n.Rels()
	if c, ok := sc.cards[s]; ok {
		return c
	}
	c := cost.SubsetCard(q, est, s)
	if sc.cards == nil {
		sc.cards = make(map[query.RelSet]float64, 16)
	}
	sc.cards[s] = c
	return c
}

// JoinState encodes the current forest of join subtrees. The subtree block
// has one row per current subtree (in forest order); entry (row, i) is
// 1/2^depth of relation i within that subtree, 0 if absent. The join-graph
// and selectivity blocks are constant per query.
func (s *Space) JoinState(q *query.Query, forest []plan.Node) []float64 {
	return s.JoinStateInto(make([]float64, s.ObsDim()), q, forest, nil)
}

// JoinStateInto is JoinState writing into caller-owned storage: dst must have
// length ObsDim() and is fully overwritten. sc carries the reusable working
// maps; nil falls back to throwaway ones. The returned slice is dst. dst must
// still be freshly allocated per state when the result is retained (episode
// trajectories keep feature vectors until the policy update); what the
// scratch eliminates is every other allocation of the encoding.
func (s *Space) JoinStateInto(dst []float64, q *query.Query, forest []plan.Node, sc *Scratch) []float64 {
	if sc == nil {
		sc = &Scratch{}
	}
	n := s.MaxRels
	features := dst[:s.ObsDim()]
	for i := range features {
		features[i] = 0
	}
	idx := sc.prepare(q, s.Est)

	// Subtree block.
	for row, tree := range forest {
		if row >= n {
			break
		}
		depthWeights(tree, 0, idx, features[row*n:(row+1)*n])
	}
	// Join-graph block.
	off := n * n
	for _, j := range q.Joins {
		a, aok := idx[j.LeftAlias]
		b, bok := idx[j.RightAlias]
		if aok && bok && a < n && b < n {
			features[off+a*n+b] = 1
			features[off+b*n+a] = 1
		}
	}
	// Selectivity block (constant per query; served from the scratch cache).
	off = 2 * n * n
	for i, sel := range sc.sels {
		if i < n {
			features[off+i] = sel
		}
	}
	// Cardinality block: log-scaled estimated output size of each current
	// subtree. Without it the policy cannot distinguish a tiny dimension
	// subtree from a fact-table blowup when choosing what to join next.
	off = 2*n*n + n
	for row, tree := range forest {
		if row >= n {
			break
		}
		card := sc.cardOf(q, s.Est, tree)
		features[off+row] = math.Log10(card+1) / 10
	}
	return features
}

// PairMask returns the action mask for the current forest: action x·MaxRels+y
// is valid iff x and y address distinct existing subtrees. The mask is a
// pure function of the forest size, so it is computed once per size and the
// shared cached slice is returned — callers must treat it as read-only.
func (s *Space) PairMask(forestSize int) []bool {
	s.maskOnce.Do(func() {
		s.masks = make([][]bool, s.MaxRels+1)
		for k := range s.masks {
			s.masks[k] = s.buildPairMask(k)
		}
	})
	k := forestSize
	if k > s.MaxRels {
		k = s.MaxRels
	}
	if k < 0 {
		k = 0
	}
	return s.masks[k]
}

func (s *Space) buildPairMask(forestSize int) []bool {
	n := s.MaxRels
	mask := make([]bool, n*n)
	for x := 0; x < forestSize && x < n; x++ {
		for y := 0; y < forestSize && y < n; y++ {
			if x != y {
				mask[x*n+y] = true
			}
		}
	}
	return mask
}

// ConnectedPairMask is PairMask restricted to pairs connected by at least
// one join predicate (used when cross products are disallowed). If no
// connected pair exists, it falls back to the unrestricted mask so episodes
// can always finish. The mask is freshly allocated (it varies with join
// structure and is retained by trajectories); the fallback returns the
// shared PairMask cache entry, which callers must treat as read-only.
func (s *Space) ConnectedPairMask(q *query.Query, forest []plan.Node) []bool {
	n := s.MaxRels
	mask := make([]bool, n*n)
	any := false
	for x := 0; x < len(forest) && x < n; x++ {
		for y := 0; y < len(forest) && y < n; y++ {
			if x == y {
				continue
			}
			if q.HasJoinBetween(forest[x].Rels(), forest[y].Rels()) {
				mask[x*n+y] = true
				any = true
			}
		}
	}
	if !any {
		return s.PairMask(len(forest))
	}
	return mask
}

// DecodeAction splits an action id into its (x, y) pair.
func (s *Space) DecodeAction(a int) (x, y int) {
	return a / s.MaxRels, a % s.MaxRels
}

// EncodeAction builds the action id of the (x, y) pair.
func (s *Space) EncodeAction(x, y int) int {
	return x*s.MaxRels + y
}

// depthWeights writes 1/2^depth of every relation in the subtree into row,
// at the relation's feature index.
func depthWeights(n plan.Node, depth int, idx map[string]int, row []float64) {
	switch n := n.(type) {
	case *plan.Scan:
		if i, ok := idx[n.Alias]; ok && i < len(row) {
			row[i] = 1 / float64(int64(1)<<uint(depth))
		}
	default:
		for _, c := range n.Children() {
			depthWeights(c, depth+1, idx, row)
		}
	}
}
