package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"

	"handsfree"
	"handsfree/internal/featurize"
	"handsfree/internal/nn"
	"handsfree/internal/plancache"
	"handsfree/internal/planspace"
	"handsfree/internal/rl"
	"handsfree/internal/sqlparse"
)

// replayer is the traced run's per-layer probe. After each HTTP request it
// re-issues, in process and on the same query, the calls the request made
// into each layer's public functions, timing every call from the
// benchmark's side; nothing inside the program is instrumented. The
// learned stage is timed on a benchmark-owned greedy rollout with a policy
// of the layout a lifecycle would serve (same featurize.Space, hidden
// 128/64, packed inference), so nn and featurize are measured whether or
// not the tenant has been trained.
type replayer struct {
	tr       *tracer
	svc      *handsfree.Service
	exec     bool
	rollouts []*rollout
	learn    *learnProbe

	mu        sync.Mutex
	work      []float64 // engine work units of each replayed engine run
	attempted int64
	failed    int64
	firstErr  error
}

// rollout is one worker's planning environment and inference buffer.
type rollout struct {
	env    *planspace.Env
	net    *nn.PackedNetwork
	logits nn.Mat
}

func newReplayer(tr *tracer, svc *handsfree.Service, exec bool, maxRels, workers int) *replayer {
	sys := svc.System()
	space := featurize.NewSpace(maxRels, sys.Est)
	layout := planspace.Layout{Space: space}
	net := nn.NewMLPAt(sys.Precision, rand.New(rand.NewSource(1)), layout.ObsDim(), 128, 64, layout.ActionDim()).Pack()
	rp := &replayer{tr: tr, svc: svc, exec: exec}
	for w := 0; w < workers; w++ {
		rp.rollouts = append(rp.rollouts, &rollout{
			env: planspace.NewEnv(planspace.Config{
				Space: space, Planner: sys.Planner, ReuseStateBuffers: true,
			}),
			net: net,
		})
	}
	return rp
}

// replay traces one request: its HTTP round trip as the client saw it,
// then the layer calls re-issued in process.
func (rp *replayer) replay(ctx context.Context, worker int, r request, o outcome) {
	sys := rp.svc.System()
	rt := rp.tr.begin(o.draw, "request", o.sentNs)
	defer rt.finish()
	rt.add(0, "server.http", o.sentNs, o.doneNs)
	q, err := func() (*handsfree.Query, error) {
		var q *handsfree.Query
		var err error
		rt.time(0, "sqlparse.parse", func() { q, err = sqlparse.Parse(r.sql) })
		if err != nil {
			return nil, err
		}
		rt.time(0, "plancache.fingerprint", func() { _ = plancache.Fingerprint(q) })
		rt.time(0, "optimizer.dp", func() { _, err = rp.svc.ExpertPlan(ctx, q) })
		return q, err
	}()
	if err == nil && rp.exec {
		err = rp.replayExecute(ctx, rt, q)
	} else if err == nil {
		rt.time(0, "service.plan", func() { _, err = rp.svc.Plan(ctx, q) })
	}
	if err == nil {
		ro := rp.rollouts[worker]
		id := rt.open(0, "planspace.rollout")
		var out planspace.Outcome
		out, err = ro.env.GreedyRollout(ctx, q, func(st rl.State) int {
			start := rt.t.now()
			ro.net.InferVec(st.Features, &ro.logits)
			a := argmaxMasked(ro.logits.Data, st.Mask)
			rt.add(id, "nn.infer", start, rt.t.now())
			return a
		})
		rt.close(id)
		if err == nil && out.Plan == nil {
			err = errors.New("greedy rollout produced no plan")
		}
		if err == nil {
			rt.time(0, "optimizer.complete", func() { sys.Planner.CompletePhysical(q, out.Plan) })
		}
	}
	rp.mu.Lock()
	rp.attempted++
	if err != nil {
		rp.failed++
		if rp.firstErr == nil {
			rp.firstErr = fmt.Errorf("traced replay of %q: %w", r.sql, err)
		}
	}
	rp.mu.Unlock()
}

// replayExecute times the execute path's layers: the whole Service.Execute,
// the serving decision inside it, and the engine run of the served plan.
func (rp *replayer) replayExecute(ctx context.Context, rt *reqTrace, q *handsfree.Query) error {
	var err error
	rt.time(0, "service.execute", func() { _, err = rp.svc.Execute(ctx, q) })
	if err != nil {
		return err
	}
	var pr handsfree.PlanResult
	rt.time(0, "service.plan", func() { pr, err = rp.svc.Plan(ctx, q) })
	if err != nil {
		return err
	}
	var w *handsfree.Work
	rt.time(0, "engine.exec", func() { _, w, err = rp.svc.System().Engine.Execute(q, pr.Plan) })
	if err != nil {
		return err
	}
	rp.mu.Lock()
	rp.work = append(rp.work, float64(w.Total()))
	rp.mu.Unlock()
	return nil
}

// argmaxMasked picks the highest-logit valid action (first max wins), or -1
// when no action is valid — the serving path's greedy choice.
func argmaxMasked(logits []float64, mask []bool) int {
	best, bestV := -1, math.Inf(-1)
	for i, v := range logits {
		if mask[i] && (best < 0 || v > bestV) {
			best, bestV = i, v
		}
	}
	return best
}

// layerMetrics derives the span-based per-layer metrics of a traced run.
func (rp *replayer) layerMetrics(m map[string]metric) {
	tr := rp.tr
	// q reads a span-duration quantile in the given unit (1e3: µs, 1e6:
	// ms); a span that never ran reads 0.
	q := func(name string, p, unit float64) float64 { return zeroIfNaN(quantile(tr.byName(name), p)) / unit }
	m["sqlparse.parse_us.p50"] = metric{q("sqlparse.parse", 0.5, 1e3), "us"}
	m["plancache.fingerprint_us.p50"] = metric{q("plancache.fingerprint", 0.5, 1e3), "us"}
	m["optimizer.complete_us.p50"] = metric{q("optimizer.complete", 0.5, 1e3), "us"}
	m["nn.infer_us.p50"] = metric{q("nn.infer", 0.5, 1e3), "us"}
	m["optimizer.dp_ms.p50"] = metric{q("optimizer.dp", 0.5, 1e6), "ms"}
	m["optimizer.dp_ms.p99"] = metric{q("optimizer.dp", 0.99, 1e6), "ms"}
	m["engine.exec_ms.p50"] = metric{q("engine.exec", 0.5, 1e6), "ms"}
	m["engine.exec_ms.p99"] = metric{q("engine.exec", 0.99, 1e6), "ms"}
	m["engine.work_units.geomean"] = metric{zeroIfNaN(geomean(rp.work)), "count"}

	// The request's in-process service time: Service.Execute on the
	// execute workload, Service.Plan on the others.
	service := "service.plan"
	if rp.exec {
		service = "service.execute"
	}
	m["optimizer.dp_share"] = metric{share(tr.total("optimizer.dp"), tr.total(service)), "share"}
	m["engine.exec_share"] = metric{share(tr.total("engine.exec"), tr.total(service)), "share"}

	// Per-request differences of blocking calls on the same query.
	var learned, feedback, steps []float64
	for _, req := range tr.perRequest() {
		d := map[string]int64{}
		for _, s := range req {
			d[s.Name] += s.dur()
		}
		learned = append(learned, ms(d["service.plan"]-d["optimizer.dp"]))
		if rp.exec {
			feedback = append(feedback, us(d["service.execute"]-d["service.plan"]-d["engine.exec"]))
		}
		steps = append(steps, decisionGaps(req)...)
	}
	m["planspace.learned_ms.p50"] = metric{zeroIfNaN(quantile(learned, 0.5)), "ms"}
	m["exechistory.feedback_us.p50"] = metric{zeroIfNaN(quantile(feedback, 0.5)), "us"}
	m["featurize.step_us.p50"] = metric{zeroIfNaN(quantile(steps, 0.5)) / 1e3, "us"}
	rp.learn.metrics(m)
}

// decisionGaps returns, for one traced request, the time each rollout
// decision spent outside inference: from the rollout's start or the
// previous inference's end to the next inference's start, i.e. the env
// step plus featurizing the state that inference reads.
func decisionGaps(req []span) []float64 {
	var out []float64
	for _, s := range req {
		if s.Name != "planspace.rollout" {
			continue
		}
		prev := s.Start
		for _, c := range req {
			if c.Parent == s.ID && c.Name == "nn.infer" {
				out = append(out, float64(c.Start-prev))
				prev = c.End
			}
		}
	}
	return out
}
