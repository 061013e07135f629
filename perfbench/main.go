// Command perfbench is the hands-free optimizer's benchmark. It drives the
// optimizer the way its users do — SQL over HTTP to internal/server
// (POST /plansql, POST /executesql) and the learning lifecycle through
// Service.StartTraining — from one process, and prints one JSON result.
//
//	go run . --workload plan --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with --trace 1
// it carries the per-layer metrics, measured by timing, from this program,
// the calls into each layer's public functions. See README.md for the
// workloads and every metric's definition, and run.py for the wrapper that
// builds and runs this program.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"net"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"

	"handsfree"
	"handsfree/internal/nn"
)

// commit is the source revision the binary was built from, set at build
// time by run.py (-ldflags "-X main.commit=...").
var commit = "unknown"

// options are the command-line arguments.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	spansDir string
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the run's last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// phaseCount is the failure accounting of one phase of a run: attempted,
// succeeded and failed operations, with HTTP failures split by kind.
type phaseCount struct {
	Phase     string `json:"phase"`
	Attempted int64  `json:"attempted"`
	Succeeded int64  `json:"succeeded"`
	Failed    int64  `json:"failed"`
	// Non2xx counts non-2xx replies (Rejected the 429/503/504 among them),
	// Deadline client timeouts and 504s, Transport other transport
	// errors, Invalid 200 replies that broke the serving contract.
	Non2xx    int64  `json:"non_2xx,omitempty"`
	Rejected  int64  `json:"rejected,omitempty"`
	Deadline  int64  `json:"deadline,omitempty"`
	Transport int64  `json:"transport,omitempty"`
	Invalid   int64  `json:"invalid,omitempty"`
	FirstErr  string `json:"first_error,omitempty"`
	firstErr  error
}

func httpPhase(name string, outs []outcome) phaseCount {
	p := phaseCount{Phase: name}
	for _, o := range outs {
		p.Attempted++
		var nerr net.Error
		switch {
		case o.ok():
			continue
		case o.status == 0 && errors.As(o.err, &nerr) && nerr.Timeout():
			p.Deadline++
		case o.status == 0:
			p.Transport++
		case o.status != 200:
			p.Non2xx++
			if o.rejected() {
				p.Rejected++
			}
			if o.status == 504 {
				p.Deadline++
			}
		default:
			p.Invalid++
		}
		p.Failed++
		if p.firstErr == nil {
			p.firstErr = o.err
		}
	}
	return p
}

// tally sums the phases into a result; the run is correct only when no
// operation failed.
func tally(phases []phaseCount) result {
	var r result
	for i := range phases {
		p := &phases[i]
		p.Succeeded = p.Attempted - p.Failed
		if p.firstErr != nil {
			p.FirstErr = p.firstErr.Error()
		}
		r.Attempted += p.Attempted
		r.Failed += p.Failed
	}
	r.Correct = r.Failed == 0
	return r
}

func main() {
	var opt options
	var trace int
	flag.StringVar(&opt.workload, "workload", "", "workload to run: plan, execute or train")
	flag.Int64Var(&opt.seed, "seed", 1, "workload seed; the same seed generates the same inputs")
	flag.Float64Var(&opt.seconds, "seconds", 20, "measured seconds per run")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced variant and reports per-layer metrics")
	flag.StringVar(&opt.spansDir, "spans", "", "directory the traced run writes its span file to")
	flag.Parse()
	opt.trace = trace == 1
	if flag.NArg() > 0 || (trace != 0 && trace != 1) || opt.seconds <= 0 {
		flag.Usage()
		os.Exit(2)
	}
	if err := run(opt); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(opt options) error {
	ctx := context.Background()
	out := json.NewEncoder(os.Stdout)
	if err := out.Encode(map[string]any{"host": describeHost(opt)}); err != nil {
		return err
	}
	var res result
	var phases []phaseCount
	var err error
	if w, ok := serveWorkloads[opt.workload]; ok {
		res, phases, err = runServe(ctx, w, opt)
	} else if opt.workload == "train" {
		res, phases, err = runTrain(ctx, opt)
	} else {
		return fmt.Errorf("unknown workload %q (want plan, execute or train)", opt.workload)
	}
	if err != nil {
		return err
	}
	for _, p := range phases {
		fmt.Fprintf(os.Stderr, "perfbench: phase %-7s attempted %6d  succeeded %6d  failed %d %s\n",
			p.Phase, p.Attempted, p.Succeeded, p.Failed, p.FirstErr)
	}
	if err := out.Encode(map[string]any{"phases": phases}); err != nil {
		return err
	}
	return out.Encode(res)
}

// hostRecord names the host and configuration a result was measured on.
type hostRecord struct {
	CPUModel   string            `json:"cpu_model"`
	ISAFlags   []string          `json:"isa_flags"`
	CPU        nn.CPUFeatures    `json:"nn_cpu"`
	Kernels    nn.KernelDispatch `json:"nn_dispatch"`
	NumCPU     int               `json:"num_cpu"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	GoVersion  string            `json:"go_version"`
	OSRelease  string            `json:"os_release"`
	Precision  string            `json:"precision"`
	Engine     string            `json:"compute_engine"`
	Stats      string            `json:"stats_mode"`
	Commit     string            `json:"commit"`
	Workload   string            `json:"workload"`
	Seed       int64             `json:"seed"`
	Seconds    float64           `json:"seconds"`
	Trace      bool              `json:"trace"`
}

// isaFlags are the /proc/cpuinfo flags the kernels dispatch on.
var isaFlags = map[string]bool{"sse4_2": true, "avx": true, "avx2": true, "fma": true, "avx512f": true, "avx512bw": true, "avx512vl": true}

func describeHost(opt options) hostRecord {
	h := hostRecord{
		CPU:        nn.DetectCPU(),
		Kernels:    nn.Dispatch(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Precision:  handsfree.PrecisionAuto.Resolve().String(),
		Engine:     handsfree.EngineAuto.Resolve().String(),
		Stats:      handsfree.StatsAuto.Resolve().String(),
		Commit:     commit,
		Workload:   opt.workload,
		Seed:       opt.seed,
		Seconds:    opt.seconds,
		Trace:      opt.trace,
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		sc.Buffer(nil, 1<<20)
		for sc.Scan() && (h.CPUModel == "" || h.ISAFlags == nil) {
			key, val, _ := strings.Cut(sc.Text(), ":")
			switch strings.TrimSpace(key) {
			case "model name":
				h.CPUModel = strings.TrimSpace(val)
			case "flags":
				h.ISAFlags = []string{}
				for _, fl := range strings.Fields(val) {
					if isaFlags[fl] {
						h.ISAFlags = append(h.ISAFlags, fl)
					}
				}
			}
		}
		f.Close()
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		h.OSRelease = strings.TrimSpace(string(b))
	}
	return h
}

// processCPU returns the CPU time, user plus system, every thread of the
// process has used. Time the host's hypervisor gave to other machines is
// not in it, which is what makes per-operation CPU time steadier than wall
// time on a shared host.
func processCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// hostCPU reads the machine-wide CPU time counters (in clock ticks) from
// /proc/stat: time stolen by the hypervisor for other machines, and the
// total. Their change over a run says how contended the host was.
func hostCPU() (steal, total float64, err error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0, errors.New("unexpected /proc/stat layout")
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return 0, 0, fmt.Errorf("parsing /proc/stat: %w", err)
		}
		// The guest columns are already counted in user and nice.
		if i < 8 {
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total, nil
}

// goCounters are process-wide Go runtime counters.
type goCounters struct {
	allocBytes, gcCPU, totalCPU float64
}

func readGo() goCounters {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return goCounters{
		allocBytes: float64(s[0].Value.Uint64()),
		gcCPU:      s[1].Value.Float64(),
		totalCPU:   s[2].Value.Float64(),
	}
}

// resetPeakRSS restarts the kernel's peak resident-set counter (VmHWM).
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads the process's peak resident set size since the last reset.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}
