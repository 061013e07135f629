package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"handsfree/internal/server"
)

// requestTimeout is the client deadline. A request that has not answered by
// then is a failed operation; in latency percentiles every failed or refused
// request counts as taking exactly this long, which exceeds any limit a
// reader would set.
const requestTimeout = 30 * time.Second

// request is one prepared input: its SQL, the JSON body sent to the
// endpoint, and the query's canonical fingerprint (used only to measure how
// often inputs repeat).
type request struct {
	sql  string
	body []byte
	fp   uint64
}

// feed hands out the workload's requests. Every phase of a run draws from
// the same counter under one lock, so the sequence of requests does not
// depend on which client draws them, and a fresh-query feed never sends a
// query twice. Requests are made as they are drawn, so the load generator
// holds the same few hundred inputs whatever the workload and however long
// the run.
type feed struct {
	mu sync.Mutex
	n  int64
	// pool, when set, is drawn in a fresh random order each pass, so every
	// pool query is drawn equally often and the mix of a stretch of
	// requests does not depend on luck.
	pool  []request
	order []int
	rng   *rand.Rand
	// gen, when pool is empty, generates a stream of fresh queries.
	gen *generator
}

// poolFeed draws from reqs uniformly, in shuffled passes over the pool.
func poolFeed(reqs []request, rng *rand.Rand) *feed {
	return &feed{pool: reqs, rng: rng}
}

// streamFeed sends each query gen generates once, in order; it never wraps.
func streamFeed(gen *generator) *feed { return &feed{gen: gen} }

func (f *feed) next() (int64, request, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	i := f.n
	f.n++
	if f.gen != nil {
		_, r, err := f.gen.next()
		return i, r, err
	}
	k := int(i % int64(len(f.pool)))
	if k == 0 {
		f.order = f.rng.Perm(len(f.pool))
	}
	return i, f.pool[f.order[k]], nil
}

// client sends the benchmark's HTTP load over at most `conns` keep-alive
// connections and checks every reply.
type client struct {
	hc            *http.Client
	url           string
	exec          bool
	fallbackRatio float64
}

func newClient(base, endpoint, tenant string, conns int, fallbackRatio float64) *client {
	tr := &http.Transport{
		MaxIdleConnsPerHost: conns,
		MaxConnsPerHost:     conns,
		DisableCompression:  true,
	}
	return &client{
		hc:            &http.Client{Transport: tr, Timeout: requestTimeout},
		url:           base + endpoint + "?tenant=" + tenant,
		exec:          endpoint == "/executesql",
		fallbackRatio: fallbackRatio,
	}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// outcome is one request as the client saw it.
type outcome struct {
	draw   int64 // feed draw index
	fp     uint64
	status int   // 0 on a transport error
	err    error // transport, status or validation failure; nil when ok
	// sentNs and doneNs are offsets from the phase start; dueNs is when an
	// open loop scheduled the request (equal to sentNs in a closed loop).
	dueNs, sentNs, doneNs int64
	// queueMs and serviceMs are the server's admission wait and its
	// plan_ms (plans) or total_ms (executions), read from the reply.
	queueMs, serviceMs float64
	source             string
}

func (o outcome) ok() bool { return o.err == nil }

// rejected reports a refusal by the server's admission, drain or deadline
// machinery.
func (o outcome) rejected() bool {
	return o.status == http.StatusTooManyRequests || o.status == http.StatusServiceUnavailable ||
		o.status == http.StatusGatewayTimeout
}

// latencyMs is the request's latency from when it was due; a failed request
// counts as the client deadline.
func (o outcome) latencyMs() float64 {
	if !o.ok() {
		return float64(requestTimeout) / 1e6
	}
	return ms(o.doneNs - o.dueNs)
}

// send posts one request and validates the reply.
func (c *client) send(ctx context.Context, r request, o *outcome) {
	o.fp = r.fp
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.url, bytes.NewReader(r.body))
	if err != nil {
		o.err = err
		return
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(req)
	if err != nil {
		o.err = err
		return
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	o.status = resp.StatusCode
	if err != nil {
		o.err = err
		return
	}
	if resp.StatusCode != http.StatusOK {
		o.err = fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(raw))
		return
	}
	o.err = c.check(raw, o)
}

// check decodes a 200 reply and enforces the serving contract on it: a
// known plan source, finite positive costs, and a served cost within the
// regression guard's FallbackRatio × the expert's cost.
func (c *client) check(raw []byte, o *outcome) error {
	var cost, expert float64
	if c.exec {
		var r server.ExecuteResponse
		if err := json.Unmarshal(raw, &r); err != nil {
			return fmt.Errorf("decoding execute reply: %w", err)
		}
		if r.Rows < 0 || r.WorkUnits < 0 || !(r.LatencyMs >= 0) || math.IsInf(r.LatencyMs, 0) {
			return fmt.Errorf("execute reply with rows %d, work %d, latency %v", r.Rows, r.WorkUnits, r.LatencyMs)
		}
		o.source, o.queueMs, o.serviceMs, cost, expert = r.Source, r.QueueMs, r.TotalMs, r.Cost, r.ExpertCost
	} else {
		var r server.PlanResponse
		if err := json.Unmarshal(raw, &r); err != nil {
			return fmt.Errorf("decoding plan reply: %w", err)
		}
		o.source, o.queueMs, o.serviceMs, cost, expert = r.Source, r.QueueMs, r.PlanMs, r.Cost, r.ExpertCost
	}
	return checkDecision(o.source, cost, expert, c.fallbackRatio)
}

// checkDecision is the per-decision serving contract shared by HTTP replies
// and the in-process oracle.
func checkDecision(source string, cost, expert, fallbackRatio float64) error {
	switch source {
	case "expert", "learned", "fallback":
	default:
		return fmt.Errorf("unknown plan source %q", source)
	}
	if !(cost > 0) || math.IsInf(cost, 0) || !(expert > 0) || math.IsInf(expert, 0) {
		return fmt.Errorf("%s plan with cost %v against expert cost %v", source, cost, expert)
	}
	if fallbackRatio > 0 && cost > fallbackRatio*expert*(1+1e-9) {
		return fmt.Errorf("%s plan cost %v exceeds %v × expert cost %v", source, cost, fallbackRatio, expert)
	}
	return nil
}

// closedLoop runs `clients` callers from start for d; each sends its next
// request only after the previous reply. after, when set, runs on the
// caller's goroutine after every request (the traced run replays the
// request's layer calls there, so their cost lands in the loop's
// throughput).
func closedLoop(ctx context.Context, c *client, f *feed, clients int, start time.Time, d time.Duration,
	after func(worker int, r request, o outcome)) []outcome {
	var mu sync.Mutex
	var all []outcome
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var mine []outcome
			for time.Since(start) < d && ctx.Err() == nil {
				i, r, err := f.next()
				o := outcome{draw: i, err: err}
				o.sentNs = int64(time.Since(start))
				o.dueNs = o.sentNs
				if err == nil {
					c.send(ctx, r, &o)
				}
				o.doneNs = int64(time.Since(start))
				if after != nil && err == nil {
					after(w, r, o)
				}
				mine = append(mine, o)
			}
			mu.Lock()
			all = append(all, mine...)
			mu.Unlock()
		}(w)
	}
	wg.Wait()
	return all
}

// openLoop sends n requests on a fixed schedule of `rate` per second, from
// at most `clients` goroutines. Each request is timed from when it was due,
// so a stall delays — and is charged to — every request queued behind it.
func openLoop(ctx context.Context, c *client, f *feed, rate float64, n, clients int) []outcome {
	out := make([]outcome, n)
	var slot atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(slot.Add(1) - 1)
				if k >= n || ctx.Err() != nil {
					return
				}
				due := time.Duration(float64(k) / rate * float64(time.Second))
				if wait := due - time.Since(start); wait > 0 {
					time.Sleep(wait)
				}
				i, r, err := f.next()
				o := outcome{draw: i, dueNs: int64(due), err: err}
				o.sentNs = int64(time.Since(start))
				if err == nil {
					c.send(ctx, r, &o)
				}
				o.doneNs = int64(time.Since(start))
				out[k] = o
			}
		}()
	}
	wg.Wait()
	return out
}

// chunkRates cuts a closed-loop slice's successful completions before d,
// in time order, into k runs of equal count and returns each run's
// completions per second. The run reports their median, so a transient
// stall moves the figure less than a plain mean would.
func chunkRates(outs []outcome, d time.Duration, k int) []float64 {
	var done []float64
	for _, o := range outs {
		if o.ok() && o.doneNs < int64(d) {
			done = append(done, float64(o.doneNs))
		}
	}
	sort.Float64s(done)
	per := len(done) / k
	if per < 2 {
		return []float64{share(float64(len(done)), d.Seconds())}
	}
	rates := make([]float64, k)
	for i := range rates {
		first, last := done[i*per], done[(i+1)*per-1]
		rates[i] = float64(per-1) / ((last - first) / 1e9)
	}
	return rates
}
