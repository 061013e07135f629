package main

import (
	"context"
	"fmt"
	"sort"

	"handsfree"
	"handsfree/internal/plancache"
)

// evalResult is the correctness oracle's verdict on the fixed evaluation
// list, with the plan-quality ratios measured on it.
type evalResult struct {
	attempted, failed int64
	firstErr          error
	// costRatio and workRatio are geometric means over the list of served
	// over expert: cost-model cost and engine work units.
	costRatio, workRatio float64
}

// evaluate serves a plan for every query of the list through the in-process
// Service.Plan — the decision the HTTP endpoints return — and checks it:
// the serving contract on the decision, and, through engine.Execute, that
// the served plan returns exactly the expert plan's result. This holds for
// learned, fallback and expert plans alike: the optimizer may never change
// a query's answer. A served plan structurally identical to the expert's
// answers identically by construction and is not executed.
func evaluate(ctx context.Context, svc *handsfree.Service, eval []*handsfree.Query) evalResult {
	var res evalResult
	var costs, works []float64
	eng := svc.System().Engine
	for _, q := range eval {
		res.attempted++
		err := func() error {
			served, err := svc.Plan(ctx, q)
			if err != nil {
				return err
			}
			expert, err := svc.ExpertPlan(ctx, q)
			if err != nil {
				return err
			}
			if err := checkDecision(served.Source.String(), served.Cost, expert.Cost, svc.FallbackRatio()); err != nil {
				return err
			}
			if plancache.HashPlan(served.Plan) == plancache.HashPlan(expert.Root) {
				// The served plan is the expert plan: same answer, same work.
				costs, works = append(costs, served.Cost/expert.Cost), append(works, 1)
				return nil
			}
			got, gw, err := eng.Execute(q, served.Plan)
			if err != nil {
				return fmt.Errorf("executing the %s plan: %w", served.Source, err)
			}
			want, ew, err := eng.Execute(q, expert.Root)
			if err != nil {
				return fmt.Errorf("executing the expert plan: %w", err)
			}
			if err := sameResult(got, want); err != nil {
				return fmt.Errorf("%s plan changed the answer: %w", served.Source, err)
			}
			costs = append(costs, served.Cost/expert.Cost)
			works = append(works, float64(max(gw.Total(), 1))/float64(max(ew.Total(), 1)))
			return nil
		}()
		if err != nil {
			res.failed++
			if res.firstErr == nil {
				res.firstErr = fmt.Errorf("oracle on %q: %w", q.SQL(), err)
			}
		}
	}
	res.costRatio, res.workRatio = geomean(costs), geomean(works)
	return res
}

// sameResult compares two results as multisets of rows over the same
// columns; row order is a plan property, not part of the answer.
func sameResult(a, b *handsfree.Result) error {
	if a.N != b.N {
		return fmt.Errorf("%d rows, expert has %d", a.N, b.N)
	}
	keys := make([]string, 0, len(a.Cols))
	for k := range a.Cols {
		if _, ok := b.Cols[k]; !ok {
			return fmt.Errorf("column %s missing from the expert result", k)
		}
		keys = append(keys, k)
	}
	if len(keys) != len(b.Cols) {
		return fmt.Errorf("%d columns, expert has %d", len(keys), len(b.Cols))
	}
	sort.Strings(keys)
	ra, rb := rows(a, keys), rows(b, keys)
	for i := range ra {
		for j := range ra[i] {
			if ra[i][j] != rb[i][j] {
				return fmt.Errorf("row %d differs: %v vs %v", i, ra[i], rb[i])
			}
		}
	}
	return nil
}

// rows returns the result's rows over keys, sorted lexicographically.
func rows(r *handsfree.Result, keys []string) [][]int64 {
	out := make([][]int64, r.N)
	for i := range out {
		out[i] = make([]int64, len(keys))
		for j, k := range keys {
			out[i][j] = r.Cols[k][i]
		}
	}
	sort.Slice(out, func(x, y int) bool {
		for j := range out[x] {
			if out[x][j] != out[y][j] {
				return out[x][j] < out[y][j]
			}
		}
		return false
	})
	return out
}
