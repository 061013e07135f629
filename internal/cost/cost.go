// Package cost implements a PostgreSQL-style analytical cost model over
// physical plans. Costs are unitless, exactly as the paper discusses in
// §5.2: they are meant to *compare* plans, not to predict latency — the gap
// between this model (estimated cardinalities, hand-tuned constants) and the
// engine's latency model (true cardinalities, different hardware constants)
// is the learning signal the paper's agents exploit.
//
// The model is parameterized by a CardSource so the identical operator
// arithmetic can be driven by the Estimator (the optimizer's view) or by the
// Oracle (execution's view).
package cost

import (
	"math"

	"handsfree/internal/plan"
	"handsfree/internal/query"
)

// CardSource supplies cardinalities: either estimated (stats.Estimator) or
// true (stats.Oracle).
type CardSource interface {
	// BaseCard is the post-filter cardinality of one relation.
	BaseCard(q *query.Query, alias string) float64
	// JoinSelectivity is the selectivity of one equality join predicate.
	JoinSelectivity(q *query.Query, j query.Join) float64
	// TableRows is the unfiltered row count of a table.
	TableRows(table string) int64
}

// SubsetCard is the cardinality of joining the relations in s under src: the
// product of their base cardinalities, taken in q.Relations order, times the
// selectivity of every join predicate with both ends in s, taken in q.Joins
// order, floored at 1. The fixed multiplication order makes the result
// bitwise reproducible. With an estimator as src it is the optimizer's
// estimate; with the oracle, the cardinality execution observes.
func SubsetCard(q *query.Query, src CardSource, s query.RelSet) float64 {
	card := 1.0
	for i := range s.All() {
		card *= src.BaseCard(q, q.Relations[i].Alias)
	}
	for _, j := range q.Joins {
		if q.Rel(j.LeftAlias)&s != 0 && q.Rel(j.RightAlias)&s != 0 {
			card *= src.JoinSelectivity(q, j)
		}
	}
	return max(card, 1)
}

// Params are the cost-model constants (PostgreSQL's defaults, plus the
// engine-geometry knobs the simulator needs).
type Params struct {
	SeqPageCost       float64 // cost to read one page sequentially
	RandomPageCost    float64 // cost to read one page randomly
	CPUTupleCost      float64 // cost to process one tuple
	CPUIndexTupleCost float64 // cost to process one index entry
	CPUOperatorCost   float64 // cost to evaluate one predicate/expression
	RowsPerPage       float64 // tuples per page
	WorkMemRows       float64 // rows fitting in memory for hash/sort
	SpillFactor       float64 // multiplier applied to spilled hash/sort work
}

// DefaultParams mirrors PostgreSQL's default planner constants.
func DefaultParams() Params {
	return Params{
		SeqPageCost:       1.0,
		RandomPageCost:    4.0,
		CPUTupleCost:      0.01,
		CPUIndexTupleCost: 0.005,
		CPUOperatorCost:   0.0025,
		RowsPerPage:       100,
		WorkMemRows:       100_000,
		SpillFactor:       2.5,
	}
}

// Model evaluates plans.
type Model struct {
	Params Params
	Cards  CardSource
}

// New returns a cost model with the given constants and cardinality source.
func New(p Params, cards CardSource) *Model {
	return &Model{Params: p, Cards: cards}
}

// NodeCost is the costing result for one operator.
type NodeCost struct {
	// Rows is the (estimated or true, per the CardSource) output cardinality.
	Rows float64
	// Total is the cumulative cost of producing all output rows.
	Total float64
	// RescanCost is the cost of producing the output again (used when this
	// node is the inner side of a nested-loop join).
	RescanCost float64
	// Sorted reports whether output is sorted on a join column (merge joins
	// exploit interesting orders from B-tree index scans).
	Sorted bool
}

// Cost returns the total cost of the plan for query q.
func (m *Model) Cost(q *query.Query, n plan.Node) float64 {
	return m.cost(q, n).Total
}

// Explain returns the per-node costing of the plan root.
func (m *Model) Explain(q *query.Query, n plan.Node) NodeCost {
	return m.cost(q, n)
}

func (m *Model) cost(q *query.Query, n plan.Node) NodeCost {
	switch n := n.(type) {
	case *plan.Scan:
		return m.ScanCost(q, n)
	case *plan.Join:
		return m.JoinCost(q, n, m.cost(q, n.Left), m.cost(q, n.Right))
	case *plan.Agg:
		return m.AggCost(q, n, m.cost(q, n.Child))
	default:
		panic("cost: unknown plan node")
	}
}

// ScanCost prices one scan leaf.
func (m *Model) ScanCost(q *query.Query, s *plan.Scan) NodeCost {
	p := m.Params
	baseRows := float64(m.Cards.TableRows(s.Table))
	outRows := m.Cards.BaseCard(q, s.Alias)
	if outRows > baseRows {
		outRows = baseRows
	}
	nFilters := float64(len(s.Filters))

	switch s.Access {
	case plan.SeqScan:
		pages := math.Ceil(baseRows / p.RowsPerPage)
		total := p.SeqPageCost*pages + p.CPUTupleCost*baseRows + p.CPUOperatorCost*nFilters*baseRows
		return NodeCost{Rows: outRows, Total: total, RescanCost: total, Sorted: false}

	case plan.IndexScan, plan.HashIndexScan:
		// Rows matched by the index alone: the index only covers predicates
		// on its column; remaining filters are applied afterwards. With only
		// the combined selectivity available, attribute an even (geometric)
		// share of it to each filter.
		matched := baseRows
		idxFilters := 0
		for _, f := range s.Filters {
			if f.Column == s.IndexColumn {
				idxFilters++
			}
		}
		if nFilters > 0 && idxFilters > 0 {
			perFilterSel := math.Pow(outRows/math.Max(baseRows, 1), 1/nFilters)
			matched = baseRows * math.Pow(perFilterSel, float64(idxFilters))
		}
		if matched < 1 {
			matched = 1
		}
		// Descent: one random leaf fetch plus comparisons down the tree
		// (upper levels are assumed cached, as real optimizers model it).
		height := math.Log2(baseRows + 2)
		descend := p.RandomPageCost + p.CPUIndexTupleCost*50*height
		if s.Access == plan.HashIndexScan {
			descend = p.RandomPageCost // single bucket lookup
			if idxFilters == 0 || !hasEqFilter(s) {
				// A hash index cannot serve a range or absent predicate:
				// degenerate to walking every bucket.
				matched = baseRows
			}
		}
		fetch := matched * (p.CPUIndexTupleCost + p.CPUTupleCost + p.RandomPageCost/p.RowsPerPage)
		residual := p.CPUOperatorCost * (nFilters - float64(idxFilters)) * matched
		total := descend + fetch + math.Max(residual, 0)
		return NodeCost{
			Rows:       outRows,
			Total:      total,
			RescanCost: total,
			Sorted:     s.Access == plan.IndexScan,
		}
	default:
		panic("cost: unknown access path")
	}
}

func hasEqFilter(s *plan.Scan) bool {
	for _, f := range s.Filters {
		if f.Column == s.IndexColumn && f.Op == query.Eq {
			return true
		}
	}
	return false
}

// joinSelectivity multiplies the selectivities of every predicate applied at
// the join; an empty predicate list is a cross product (selectivity 1).
func (m *Model) joinSelectivity(q *query.Query, preds []query.Join) float64 {
	sel := 1.0
	for _, j := range preds {
		sel *= m.Cards.JoinSelectivity(q, j)
	}
	return sel
}

// JoinCost prices a join given its children's already-computed costs,
// allowing dynamic-programming enumerators to cost candidates incrementally.
func (m *Model) JoinCost(q *query.Query, j *plan.Join, left, right NodeCost) NodeCost {
	p := m.Params
	sel := m.joinSelectivity(q, j.Preds)
	outRows := left.Rows * right.Rows * sel
	if outRows < 1 {
		outRows = 1
	}
	emit := p.CPUTupleCost * outRows

	switch j.Algo {
	case plan.NestLoop:
		var inner float64
		if idx, perProbe := m.indexProbeCost(q, j); idx {
			// Index nested loop: each outer row probes the inner index.
			inner = left.Rows * perProbe
		} else {
			// First inner pass at full cost, then materialized rescans.
			rescan := right.RescanCost
			mat := right.Rows * p.CPUTupleCost * 0.5
			if mat < rescan {
				rescan = mat // materialize when cheaper
			}
			inner = right.Total + math.Max(left.Rows-1, 0)*rescan +
				left.Rows*right.Rows*p.CPUOperatorCost
		}
		total := left.Total + inner + emit
		return NodeCost{Rows: outRows, Total: total, RescanCost: total, Sorted: false}

	case plan.HashJoin:
		build := right.Rows * (p.CPUOperatorCost + p.CPUTupleCost)
		probe := left.Rows * (p.CPUOperatorCost + p.CPUTupleCost*0.5)
		spill := 0.0
		if right.Rows > p.WorkMemRows {
			batches := math.Ceil(right.Rows / p.WorkMemRows)
			spill = (left.Rows + right.Rows) / p.RowsPerPage * p.SeqPageCost * 2 * math.Log2(batches+1) * (p.SpillFactor - 1)
		}
		total := left.Total + right.Total + build + probe + spill + emit
		return NodeCost{Rows: outRows, Total: total, RescanCost: total, Sorted: false}

	case plan.MergeJoin:
		total := left.Total + right.Total
		if !left.Sorted {
			total += m.sortCost(left.Rows)
		}
		if !right.Sorted {
			total += m.sortCost(right.Rows)
		}
		total += (left.Rows + right.Rows) * p.CPUTupleCost
		total += emit
		return NodeCost{Rows: outRows, Total: total, RescanCost: total, Sorted: true}
	default:
		panic("cost: unknown join algorithm")
	}
}

// indexProbeCost reports whether the inner (right) side of a nested loop is
// a bare indexed scan whose index column participates in the join predicate,
// and if so the cost of one probe.
func (m *Model) indexProbeCost(q *query.Query, j *plan.Join) (bool, float64) {
	s, ok := j.Right.(*plan.Scan)
	if !ok || s.Access == plan.SeqScan || len(j.Preds) == 0 {
		return false, 0
	}
	match := false
	for _, pr := range j.Preds {
		if (pr.LeftAlias == s.Alias && pr.LeftCol == s.IndexColumn) ||
			(pr.RightAlias == s.Alias && pr.RightCol == s.IndexColumn) {
			match = true
			break
		}
	}
	if !match {
		return false, 0
	}
	p := m.Params
	baseRows := float64(m.Cards.TableRows(s.Table))
	perMatch := p.CPUIndexTupleCost + p.CPUTupleCost + p.RandomPageCost/p.RowsPerPage
	// Average matches per probe: rows of inner per distinct join key.
	sel := m.joinSelectivity(q, j.Preds)
	matches := math.Max(baseRows*sel, 1.0/8)
	descend := p.RandomPageCost + p.CPUIndexTupleCost*50*math.Log2(baseRows+2)
	if s.Access == plan.HashIndexScan {
		descend = p.RandomPageCost
	}
	residual := p.CPUOperatorCost * float64(len(s.Filters)) * matches
	return true, descend + matches*perMatch + residual
}

func (m *Model) sortCost(rows float64) float64 {
	p := m.Params
	if rows < 2 {
		return p.CPUOperatorCost
	}
	c := p.CPUOperatorCost * 2 * rows * math.Log2(rows)
	if rows > p.WorkMemRows {
		c *= p.SpillFactor
	}
	return c
}

// AggCost prices an aggregation given its child's already-computed cost.
func (m *Model) AggCost(q *query.Query, a *plan.Agg, child NodeCost) NodeCost {
	p := m.Params
	groups := 1.0
	if len(a.GroupBys) > 0 {
		// Heuristic group estimate: output grows sub-linearly with input.
		groups = math.Min(child.Rows, math.Pow(child.Rows, 2.0/3.0)*float64(len(a.GroupBys)))
		if groups < 1 {
			groups = 1
		}
	}
	work := float64(len(a.Aggregates)+len(a.GroupBys)) * p.CPUOperatorCost * child.Rows
	var total float64
	switch a.Algo {
	case plan.HashAgg:
		spill := 1.0
		if groups > p.WorkMemRows {
			spill = p.SpillFactor
		}
		total = child.Total + (work+child.Rows*p.CPUOperatorCost)*spill + groups*p.CPUTupleCost
	case plan.SortAgg:
		sort := 0.0
		if !child.Sorted || len(a.GroupBys) > 0 {
			sort = m.sortCost(child.Rows)
		}
		total = child.Total + sort + work + groups*p.CPUTupleCost
	default:
		panic("cost: unknown aggregation algorithm")
	}
	return NodeCost{Rows: groups, Total: total, RescanCost: total, Sorted: a.Algo == plan.SortAgg}
}
