package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	"handsfree"
	"handsfree/internal/plancache"
	"handsfree/internal/server"
	"handsfree/internal/sqlparse"
)

// serveWorkload is a serving workload: SQL text sent over HTTP to one
// tenant of internal/server, from at most maxClients goroutines.
type serveWorkload struct {
	endpoint       string
	scale          float64
	minRel, maxRel int
	// pool is how many distinct queries the requests draw from, in
	// shuffled passes; 0 means a stream of fresh queries that never repeat.
	pool int
	// rate is the traced run's open-loop arrival rate in requests per
	// second: a fixed number, never derived at run time. It is about a
	// quarter of the closed-loop capacity measured on the reference host,
	// whose capacity swings up to threefold with its neighbours' load; at
	// that rate the queueing figures measure service time rather than a
	// queue those swings would build.
	rate float64
	// lifecycle trains the tenant during setup — StartTraining to
	// PhaseDone on a separate 32-query workload of the same shape — so a
	// learned policy is served.
	lifecycle bool
}

var serveWorkloads = map[string]serveWorkload{
	// plan: the expert DP does nearly all the work and the engine none;
	// every fingerprint repeats, so per-fingerprint reuse can show.
	"plan": {endpoint: "/plansql", scale: 0.05, minRel: 4, maxRel: 8, pool: 1280, rate: 60},
	// plan_fresh: the same shape with fresh queries that never repeat, so
	// per-fingerprint reuse is bypassed; the control for plan.
	"plan_fresh": {endpoint: "/plansql", scale: 0.05, minRel: 4, maxRel: 8, rate: 60},
	// execute: fresh 2–4-relation queries executed at scale 1.0 by a
	// trained tenant; the engine does nearly all the work and the
	// execution history inserts and evicts. It is not in BENCHMARK.json:
	// the engine's unbudgeted hash-join output runs some of these queries
	// out of memory (see README.md), and this workload is kept to show it.
	"execute": {endpoint: "/executesql", scale: 1.0, minRel: 2, maxRel: 4, rate: 100, lifecycle: true},
}

const (
	// maxClients caps the load generator: one process, at most this many
	// client goroutines and connections (further capped at the CPU count).
	maxClients = 2
	tenant     = "bench"
	// evalSize is the fixed evaluation list the correctness oracle and the
	// plan-quality ratios run on.
	evalSize = 32
	warmSize = 64
	// lifecycleQueries is the setup lifecycle's workload size.
	lifecycleQueries = 32
	// setupReps is how many times a run sets its tenant up; setup_s is the
	// median.
	setupReps = 15
	// The untraced run spends --seconds in the closed loop. The traced run
	// spends tracedShare of --seconds in each of the closed and the traced
	// closed loop, and sends the open loop openShare × --seconds × rate
	// requests, at least minOpen (which keeps ten samples beyond its p99).
	tracedShare = 0.4
	openShare   = 0.6
	minOpen     = 1000
)

// inputs are a run's generated requests.
type inputs struct {
	feed    *feed
	warm    []request
	eval    []*handsfree.Query
	train   []*handsfree.Query // the setup lifecycle's workload, if any
	maxRels int
}

// generator draws connected queries from the repo's workload generator,
// with relation counts cycling through [minRel, maxRel] so every seed sends
// the same mix of sizes. Each query goes through its SQL text and the SQL
// parser, as the server would see it; a fingerprint it has already
// generated is skipped, so no two generated queries are the same.
type generator struct {
	svc            *handsfree.Service
	minRel, maxRel int
	rng            *rand.Rand
	seen           map[uint64]bool
	n              int
}

func newGenerator(svc *handsfree.Service, minRel, maxRel int, rng *rand.Rand) *generator {
	return &generator{svc: svc, minRel: minRel, maxRel: maxRel, rng: rng, seen: map[uint64]bool{}}
}

func (g *generator) next() (*handsfree.Query, request, error) {
	rels := g.minRel + g.n%(g.maxRel-g.minRel+1)
	for try := 0; try < 100; try++ {
		gq, err := g.svc.System().Workload.ByRelations(rels, g.rng.Int63())
		if err != nil {
			return nil, request{}, err
		}
		sql := gq.SQL()
		q, err := sqlparse.Parse(sql)
		if err != nil {
			return nil, request{}, fmt.Errorf("generated SQL does not parse: %w", err)
		}
		fp := plancache.Fingerprint(q)
		if g.seen[fp] {
			continue
		}
		g.seen[fp] = true
		body, err := json.Marshal(server.PlanRequest{SQL: sql})
		if err != nil {
			return nil, request{}, err
		}
		g.n++
		return q, request{sql: sql, body: body, fp: fp}, nil
	}
	return nil, request{}, fmt.Errorf("could not generate a new %d-relation query", rels)
}

// take generates n queries.
func (g *generator) take(n int) ([]*handsfree.Query, []request, error) {
	qs, reqs := make([]*handsfree.Query, n), make([]request, n)
	for i := range qs {
		var err error
		if qs[i], reqs[i], err = g.next(); err != nil {
			return nil, nil, err
		}
	}
	return qs, reqs, nil
}

func (w serveWorkload) inputs(svc *handsfree.Service, seed int64) (inputs, error) {
	rng := rand.New(rand.NewSource(seed))
	gen := newGenerator(svc, w.minRel, w.maxRel, rng)
	in := inputs{maxRels: w.maxRel}
	if w.pool > 0 {
		qs, reqs, err := gen.take(w.pool)
		if err != nil {
			return in, err
		}
		// Every fingerprint is seen once during warm-up; the evaluation
		// list is the pool's head, which has the pool's mix of sizes.
		in.feed = poolFeed(reqs, rng)
		in.warm = reqs
		in.eval = qs[:evalSize]
		return in, nil
	}
	var err error
	if _, in.warm, err = gen.take(warmSize); err != nil {
		return in, err
	}
	if in.eval, _, err = gen.take(evalSize); err != nil {
		return in, err
	}
	if w.lifecycle {
		if in.train, _, err = gen.take(lifecycleQueries); err != nil {
			return in, err
		}
	}
	// The stream continues the generator, so it never repeats a query of
	// the lists above.
	in.feed = streamFeed(gen)
	return in, nil
}

// stack is one mounted tenant: the Service behind internal/server on a
// loopback listener.
type stack struct {
	svc  *handsfree.Service
	srv  *server.Server
	hs   *http.Server
	url  string
	done chan error
}

func mount(svc *handsfree.Service) (*stack, error) {
	reg := server.NewRegistry()
	if _, err := reg.Add(tenant, svc); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := server.New(server.Config{}, reg)
	st := &stack{svc: svc, srv: srv, hs: &http.Server{Handler: srv.Handler()},
		url: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	go func() { st.done <- st.hs.Serve(ln) }()
	return st, nil
}

// close drains the tenant and stops the listener, waiting for Serve to
// return.
func (s *stack) close(ctx context.Context) error {
	err := s.srv.Shutdown(ctx)
	if e := s.hs.Shutdown(ctx); err == nil {
		err = e
	}
	if e := <-s.done; !errors.Is(e, http.ErrServerClosed) && err == nil {
		err = e
	}
	return err
}

// setup builds the tenant from handsfree.New to ready-to-serve — the
// server mount and, where the workload has one, the setup lifecycle —
// setupReps times; the last stack stays up. The first repetition also
// generates the inputs, which is excluded from its time. The warm-up runs
// once, on the last stack, and is not timed: it is client traffic whose
// cost follows the seed's queries rather than the set-up path.
func (w serveWorkload) setup(ctx context.Context, seed int64) (*stack, inputs, []float64, []float64, error) {
	var in inputs
	var st *stack
	var setups, news []float64
	for k := 0; k < setupReps; k++ {
		if st != nil {
			if err := st.close(ctx); err != nil {
				return nil, in, nil, nil, err
			}
			st = nil
			runtime.GC()
		}
		t0 := time.Now()
		svc, err := handsfree.New(handsfree.WithScale(w.scale))
		if err != nil {
			return nil, in, nil, nil, err
		}
		newDur := time.Since(t0)
		var genDur time.Duration
		if k == 0 {
			g0 := time.Now()
			if in, err = w.inputs(svc, seed); err != nil {
				return nil, in, nil, nil, fmt.Errorf("generating inputs: %w", err)
			}
			genDur = time.Since(g0)
		}
		if st, err = mount(svc); err != nil {
			return nil, in, nil, nil, err
		}
		if w.lifecycle {
			if err := svc.StartTraining(ctx, handsfree.LifecycleConfig{Queries: in.train}); err != nil {
				st.close(ctx)
				return nil, in, nil, nil, err
			}
			if err := svc.WaitTraining(ctx); err != nil {
				st.close(ctx)
				return nil, in, nil, nil, fmt.Errorf("setup lifecycle: %w", err)
			}
		}
		setups = append(setups, (time.Since(t0) - genDur).Seconds())
		news = append(news, newDur.Seconds())
	}
	if g := in.feed.gen; g != nil {
		// A fresh-query stream goes on generating from the serving tenant.
		g.svc = st.svc
	}
	if err := warmUp(ctx, st, w.endpoint, in.warm); err != nil {
		st.close(ctx)
		return nil, in, nil, nil, err
	}
	return st, in, setups, news, nil
}

// warmUp sends every warm-up request once, so lazily built state (engine
// indexes, connection pools) is in place before timing.
func warmUp(ctx context.Context, st *stack, endpoint string, warm []request) error {
	c := newClient(st.url, endpoint, tenant, 1, st.svc.FallbackRatio())
	defer c.close()
	for _, r := range warm {
		var o outcome
		c.send(ctx, r, &o)
		if !o.ok() {
			return fmt.Errorf("warm-up request %q: %w", r.sql, o.err)
		}
	}
	return nil
}

// counts are the tenant's serving and execution counters and the process's
// Go runtime counters and CPU time at one instant.
type counts struct {
	learned, fallbacks, execs, timedOut, guarded float64
	cpuSec                                       float64
	gc                                           goCounters
}

func countsOf(svc *handsfree.Service) counts {
	life, exec := svc.LifecycleStats(), svc.ExecStats()
	return counts{
		learned: float64(life.LearnedServed), fallbacks: float64(life.Fallbacks),
		execs: float64(exec.Executions), timedOut: float64(exec.TimedOut), guarded: float64(exec.LatencyGuarded),
		cpuSec: processCPU(), gc: readGo(),
	}
}

// add accumulates the change from a to b.
func (c *counts) add(a, b counts) {
	c.learned += b.learned - a.learned
	c.fallbacks += b.fallbacks - a.fallbacks
	c.execs += b.execs - a.execs
	c.timedOut += b.timedOut - a.timedOut
	c.guarded += b.guarded - a.guarded
	c.cpuSec += b.cpuSec - a.cpuSec
	c.gc.allocBytes += b.gc.allocBytes - a.gc.allocBytes
	c.gc.gcCPU += b.gc.gcCPU - a.gc.gcCPU
	c.gc.totalCPU += b.gc.totalCPU - a.gc.totalCPU
}

// rounds cuts a run's measurement into slices. The traced run interleaves
// its phases: each round runs a slice of the closed loop, of the traced
// closed loop and of the open loop, then the learning probe, so every phase
// samples the whole run and a slow stretch of a shared host lands in all
// of them instead of in one.
const rounds = 6

// measurement is what the phases observed.
type measurement struct {
	closed, open, traced     []outcome
	closedRates, tracedRates []float64
	// closedCPU holds each closed slice's process CPU milliseconds per
	// successful operation.
	closedCPU []float64
	// untraced accumulates counter changes over the closed and open
	// slices, closedCounts over the closed slices alone.
	untraced, closedCounts counts
	rssMB                  float64
	// stealShare is the share of the host's CPU time its hypervisor gave
	// to other machines during the rounds: context for noisy figures.
	stealShare float64
}

// measure runs the closed loop for --seconds, or, when traced, the
// interleaved closed, traced closed and open loops. The process's peak
// resident set is taken over the measured span alone.
func (w serveWorkload) measure(ctx context.Context, svc *handsfree.Service, c *client, in inputs, opt options, rp *replayer, clients int) (measurement, error) {
	var m measurement
	part := 1.0
	if rp != nil {
		part = tracedShare
	}
	slice := time.Duration(part * opt.seconds / rounds * float64(time.Second))
	openN := max(int(math.Ceil(w.rate*openShare*opt.seconds)), minOpen)
	if err := resetPeakRSS(); err != nil {
		return m, err
	}
	steal0, total0, err := hostCPU()
	if err != nil {
		return m, err
	}
	for r := 0; r < rounds; r++ {
		a := countsOf(svc)
		out := closedLoop(ctx, c, in.feed, clients, time.Now(), slice, nil)
		b := countsOf(svc)
		m.closed = append(m.closed, out...)
		m.closedRates = append(m.closedRates, chunkRates(out, slice, 2)...)
		m.closedCPU = append(m.closedCPU, share((b.cpuSec-a.cpuSec)*1e3, float64(okCount(out))))
		m.untraced.add(a, b)
		m.closedCounts.add(a, b)
		if rp == nil {
			continue
		}
		// Span times are offsets from the tracer's epoch; the loop's are
		// offsets from the slice start.
		start := time.Now()
		off := int64(start.Sub(rp.tr.epoch))
		out = closedLoop(ctx, c, in.feed, clients, start, slice, func(wk int, r request, o outcome) {
			o.sentNs += off
			o.doneNs += off
			rp.replay(ctx, wk, r, o)
		})
		m.traced = append(m.traced, out...)
		m.tracedRates = append(m.tracedRates, chunkRates(out, slice, 2)...)
		a = countsOf(svc)
		// The rounds split openN evenly; the first ones take the remainder.
		n := openN / rounds
		if r < openN%rounds {
			n++
		}
		m.open = append(m.open, openLoop(ctx, c, in.feed, w.rate, n, clients)...)
		m.untraced.add(a, countsOf(svc))
		rp.learn.run(probeEpisodes)
	}
	steal1, total1, err := hostCPU()
	if err != nil {
		return m, err
	}
	m.stealShare = share(steal1-steal0, total1-total0)
	m.rssMB, err = peakRSSMB()
	return m, err
}

// runServe runs a plan or execute workload: set up, the closed loop
// (capacity) or, when traced, the interleaved closed, traced closed and
// open loops, then the correctness oracle.
func runServe(ctx context.Context, w serveWorkload, opt options) (result, []phaseCount, error) {
	st, in, setups, news, err := w.setup(ctx, opt.seed)
	if err != nil {
		return result{}, nil, fmt.Errorf("setup: %w", err)
	}
	defer st.close(ctx)
	svc := st.svc
	clients := min(maxClients, runtime.NumCPU())
	c := newClient(st.url, w.endpoint, tenant, clients, svc.FallbackRatio())
	defer c.close()

	var rp *replayer
	if opt.trace {
		rp = newReplayer(newTracer(time.Now()), svc, w.endpoint == "/executesql", in.maxRels, clients)
		rp.learn = newLearnProbe(svc, in.eval, in.maxRels, opt.seed)
	}
	// Garbage left by the setup repetitions is returned before the
	// resident-memory peak is taken.
	debug.FreeOSMemory()
	meas, err := w.measure(ctx, svc, c, in, opt, rp, clients)
	if err != nil {
		return result{}, nil, err
	}
	if rp != nil {
		if err := writeTrace(rp.tr, opt); err != nil {
			return result{}, nil, err
		}
	}
	ev := evaluate(ctx, svc, in.eval)

	phases := []phaseCount{httpPhase("closed", meas.closed)}
	if rp != nil {
		phases = append(phases, httpPhase("open", meas.open), httpPhase("traced", meas.traced),
			phaseCount{Phase: "replay", Attempted: rp.attempted, Failed: rp.failed, firstErr: rp.firstErr})
	}
	phases = append(phases, phaseCount{Phase: "oracle", Attempted: ev.attempted, Failed: ev.failed, firstErr: ev.firstErr})
	res := tally(phases)

	m := map[string]metric{"host.steal_share": {meas.stealShare, "share"}}
	if !opt.trace {
		m["setup_s"] = metric{median(setups), "s"}
		m["ops_per_s"] = metric{goodQuartile(meas.closedRates, "higher"), "1/s"}
		m["cpu_ms_per_op"] = metric{goodQuartile(meas.closedCPU, "lower"), "ms"}
		m["served_cost_ratio"] = metric{zeroIfNaN(ev.costRatio), "ratio"}
		m["work_ratio"] = metric{zeroIfNaN(ev.workRatio), "ratio"}
		m["rss_peak_mb"] = metric{meas.rssMB, "MB"}
		m["ok_share"] = metric{1 - share(float64(res.Failed), float64(res.Attempted)), "share"}
		if w.lifecycle {
			m["learned_cost_ratio"] = metric{svc.LifecycleStats().CostRatio, "ratio"}
		}
		res.Metrics = m
		return res, phases, nil
	}

	rp.layerMetrics(m)
	lat := make([]float64, len(meas.open))
	for i, o := range meas.open {
		lat[i] = o.latencyMs()
	}
	if b := beyond(len(lat), 0.99); b < 10 {
		return result{}, nil, fmt.Errorf("open loop has %d samples beyond p99; need 10", b)
	}
	m["p50_ms"] = metric{quantile(lat, 0.50), "ms"}
	m["p99_ms"] = metric{quantile(lat, 0.99), "ms"}
	var queue, httpMs []float64
	for _, o := range meas.open {
		if o.ok() {
			queue = append(queue, o.queueMs)
		}
	}
	for _, o := range meas.closed {
		if o.ok() {
			httpMs = append(httpMs, ms(o.doneNs-o.sentNs)-o.queueMs-o.serviceMs)
		}
	}
	m["server.queue_ms.p50"] = metric{quantile(queue, 0.5), "ms"}
	m["server.queue_ms.p99"] = metric{quantile(queue, 0.99), "ms"}
	m["server.http_ms.p50"] = metric{quantile(httpMs, 0.5), "ms"}
	rejects := 0
	for _, set := range [][]outcome{meas.closed, meas.open, meas.traced} {
		for _, o := range set {
			if o.rejected() {
				rejects++
			}
		}
	}
	m["server.rejects"] = metric{float64(rejects), "count"}

	u := meas.untraced
	hist := svc.ExecStats().History
	m["planspace.rollout_served_share"] = metric{share(u.learned, u.learned+u.fallbacks), "share"}
	m["engine.timeout_share"] = metric{share(u.timedOut, u.execs), "share"}
	m["exechistory.guard_share"] = metric{share(u.guarded, u.execs), "share"}
	m["exechistory.fingerprints"] = metric{float64(hist.Fingerprints), "count"}
	m["exechistory.evictions"] = metric{float64(hist.Evictions), "count"}
	m["setup.new_s"] = metric{median(news), "s"}
	gc := meas.closedCounts.gc
	m["go.alloc_kb_per_op"] = metric{share(gc.allocBytes, float64(okCount(meas.closed))) / 1024, "KB"}
	m["go.gc_cpu_share"] = metric{share(gc.gcCPU, gc.totalCPU), "share"}

	late := make([]float64, len(meas.open))
	for i, o := range meas.open {
		late[i] = ms(o.sentNs - o.dueNs)
	}
	m["loadgen.late_ms.p99"] = metric{quantile(late, 0.99), "ms"}
	m["loadgen.repeat_share"] = metric{repeatShare(meas.closed, meas.open, meas.traced), "share"}
	m["trace.overhead_share"] = metric{1 - share(goodQuartile(meas.tracedRates, "higher"), goodQuartile(meas.closedRates, "higher")), "share"}
	res.Metrics = m
	return res, phases, nil
}

// okCount counts the successful outcomes.
func okCount(outs []outcome) int {
	n := 0
	for _, o := range outs {
		if o.ok() {
			n++
		}
	}
	return n
}

// repeatShare is the share of sent requests whose query fingerprint an
// earlier request of the run already carried.
func repeatShare(sets ...[]outcome) float64 {
	var all []outcome
	for _, s := range sets {
		all = append(all, s...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].draw < all[j].draw })
	seen := map[uint64]bool{}
	repeats := 0
	for _, o := range all {
		if seen[o.fp] {
			repeats++
		}
		seen[o.fp] = true
	}
	return share(float64(repeats), float64(len(all)))
}

// writeTrace writes the traced run's spans and per-layer table, and prints
// the table to standard error.
func writeTrace(tr *tracer, opt options) error {
	printTable(os.Stderr, tr.table())
	if opt.spansDir == "" {
		return nil
	}
	if err := os.MkdirAll(opt.spansDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(opt.spansDir, fmt.Sprintf("%s-seed%d.spans.jsonl", opt.workload, opt.seed))
	if err := tr.write(path); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	fmt.Fprintf(os.Stderr, "perfbench: spans written to %s\n", path)
	return nil
}
