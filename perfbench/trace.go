package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"text/tabwriter"
	"time"
)

// span is one timed call the benchmark made into a layer of the program.
// The spans of one request share Req; Parent is the index (within the
// request) of the span that caused it, -1 for the request's root.
type span struct {
	Req    int64  `json:"req"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps every span of a traced run in memory until the run ends.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer(epoch time.Time) *tracer { return &tracer{epoch: epoch} }

// reqTrace collects one request's spans on the goroutine serving it and
// hands them to the tracer in one piece when the request finishes.
type reqTrace struct {
	t     *tracer
	req   int64
	spans []span
}

// begin opens a request's root span at startNs (an offset from the epoch).
func (t *tracer) begin(req int64, name string, startNs int64) *reqTrace {
	return &reqTrace{t: t, req: req, spans: []span{{Req: req, ID: 0, Parent: -1, Name: name, Start: startNs}}}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// add records a finished span and returns its id.
func (r *reqTrace) add(parent int, name string, startNs, endNs int64) int {
	id := len(r.spans)
	r.spans = append(r.spans, span{Req: r.req, ID: id, Parent: parent, Name: name, Start: startNs, End: endNs})
	return id
}

// open starts a span that later spans can name as their parent.
func (r *reqTrace) open(parent int, name string) int {
	return r.add(parent, name, r.t.now(), 0)
}

// close ends a span opened with open.
func (r *reqTrace) close(id int) { r.spans[id].End = r.t.now() }

// time runs f inside a span.
func (r *reqTrace) time(parent int, name string, f func()) {
	id := r.open(parent, name)
	f()
	r.close(id)
}

// finish closes the root span and files the request's spans.
func (r *reqTrace) finish() {
	r.spans[0].End = r.t.now()
	r.t.mu.Lock()
	r.t.spans = append(r.t.spans, r.spans...)
	r.t.mu.Unlock()
}

// byName returns the durations (ns) of every span with the given name.
func (t *tracer) byName(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.dur()))
		}
	}
	return out
}

// total sums the durations of every span with the given name.
func (t *tracer) total(name string) float64 {
	sum := 0.0
	for _, d := range t.byName(name) {
		sum += d
	}
	return sum
}

// perRequest groups the traced spans by request, in request order.
func (t *tracer) perRequest() [][]span {
	idx := map[int64]int{}
	var out [][]span
	for _, s := range t.spans {
		i, ok := idx[s.Req]
		if !ok {
			i = len(out)
			idx[s.Req] = i
			out = append(out, nil)
		}
		out[i] = append(out[i], s)
	}
	return out
}

// layerRow is one line of the per-layer table: how often a span ran, its
// total and self time (duration minus the part its child spans cover), and
// the self time's share of all root-span time.
type layerRow struct {
	name                       string
	count                      int
	totalMs, selfMs, selfShare float64
}

// table derives the per-layer self-time table from the spans.
func (t *tracer) table() []layerRow {
	rows := map[string]*layerRow{}
	var rootNs float64
	for _, req := range t.perRequest() {
		children := map[int][]span{}
		for _, s := range req {
			if s.Parent >= 0 {
				children[s.Parent] = append(children[s.Parent], s)
			}
		}
		for _, s := range req {
			r := rows[s.Name]
			if r == nil {
				r = &layerRow{name: s.Name}
				rows[s.Name] = r
			}
			self := s.dur() - covered(s, children[s.ID])
			r.count++
			r.totalMs += ms(s.dur())
			r.selfMs += ms(self)
			if s.Parent < 0 {
				rootNs += float64(s.dur())
			}
		}
	}
	out := make([]layerRow, 0, len(rows))
	for _, r := range rows {
		r.selfShare = share(r.selfMs*1e6, rootNs)
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].selfMs > out[j].selfMs })
	return out
}

// covered returns how much of parent's interval the union of kids covers.
func covered(parent span, kids []span) int64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var sum, end int64 = 0, parent.Start
	for _, k := range kids {
		lo, hi := max(k.Start, end), min(k.End, parent.End)
		if hi > lo {
			sum += hi - lo
			end = hi
		}
	}
	return sum
}

// printTable renders the per-layer table.
func printTable(w io.Writer, rows []layerRow) {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "span\tcount\ttotal ms\tself ms\tself share\t")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%d\t%.1f\t%.1f\t%.3f\t\n", r.name, r.count, r.totalMs, r.selfMs, r.selfShare)
	}
	tw.Flush()
}

// write saves the spans (one JSON object per line) to path and the
// per-layer table next to it.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	tf, err := os.Create(path + ".layers.txt")
	if err != nil {
		return err
	}
	printTable(tf, t.table())
	return tf.Close()
}
