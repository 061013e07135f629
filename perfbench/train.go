package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"time"

	"handsfree"
)

// The train workload: the learning lifecycle at scale 0.05 on 32 queries of
// 4–8 relations, with default actors (GOMAXPROCS) and the default fixed
// episode budget (192 cost + 96 latency-tuning episodes). Its time is what
// it costs to become hands-free; the serving layers are idle. Lifecycles
// repeat, each on a fresh tenant, until --seconds of lifecycle time have
// passed.
const (
	trainScale   = 0.05
	trainQueries = 32
	trainMinRel  = 4
	trainMaxRel  = 8
)

// lifecycleRun is one StartTraining → PhaseDone lifecycle as the benchmark
// observed it.
type lifecycleRun struct {
	total, demo, cost, latency time.Duration
	stats                      handsfree.LifecycleStats
}

// trainOnce runs one lifecycle on svc and times its phases by polling
// Service.Phase.
func trainOnce(ctx context.Context, svc *handsfree.Service, qs []*handsfree.Query) (lifecycleRun, error) {
	var r lifecycleRun
	v0 := svc.PolicyVersion()
	start := time.Now()
	if err := svc.StartTraining(ctx, handsfree.LifecycleConfig{Queries: qs}); err != nil {
		return r, err
	}
	seen := map[handsfree.LifecyclePhase]time.Duration{}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			p := svc.Phase()
			if _, ok := seen[p]; !ok {
				seen[p] = time.Since(start)
			}
			select {
			case <-stop:
				return
			case <-tick.C:
			}
		}
	}()
	err := svc.WaitTraining(ctx)
	r.total = time.Since(start)
	close(stop)
	wg.Wait()
	if err != nil {
		return r, err
	}
	r.stats = svc.LifecycleStats()
	r.stats.PolicyVersion -= v0
	costAt, latAt := seen[handsfree.PhaseCostTraining], seen[handsfree.PhaseLatencyTuning]
	r.demo, r.cost, r.latency = costAt, latAt-costAt, r.total-latAt
	return r, nil
}

func runTrain(ctx context.Context, opt options) (result, []phaseCount, error) {
	var setups []float64
	var svc *handsfree.Service
	for k := 0; k < setupReps; k++ {
		t0 := time.Now()
		s, err := handsfree.New(handsfree.WithScale(trainScale))
		if err != nil {
			return result{}, nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		svc = s
	}
	qs, _, err := newGenerator(svc, trainMinRel, trainMaxRel, rand.New(rand.NewSource(opt.seed))).take(trainQueries)
	if err != nil {
		return result{}, nil, fmt.Errorf("generating inputs: %w", err)
	}
	// The peak resident set is taken over the lifecycles alone.
	if err := resetPeakRSS(); err != nil {
		return result{}, nil, err
	}

	life := phaseCount{Phase: "lifecycle"}
	var runs []lifecycleRun
	var spent time.Duration
	for len(runs) == 0 || spent.Seconds() < opt.seconds {
		if len(runs) > 0 {
			if svc, err = handsfree.New(handsfree.WithScale(trainScale)); err != nil {
				return result{}, nil, err
			}
		}
		life.Attempted++
		r, err := trainOnce(ctx, svc, qs)
		spent += r.total
		if err != nil {
			life.Failed++
			life.firstErr = err
			break
		}
		runs = append(runs, r)
		fmt.Fprintf(os.Stderr, "perfbench: lifecycle %d done in %.2fs (%d+%d episodes, cost ratio %.3f)\n",
			len(runs), r.total.Seconds(), r.stats.CostEpisodes, r.stats.LatencyEpisodes, r.stats.CostRatio)
	}
	ev := evaluate(ctx, svc, qs)
	peak, err := peakRSSMB()
	if err != nil {
		return result{}, nil, err
	}
	phases := []phaseCount{life, {Phase: "oracle", Attempted: ev.attempted, Failed: ev.failed, firstErr: ev.firstErr}}
	res := tally(phases)

	var episodes, costEps, latEps float64
	var lifeS, costS, latS float64
	var demo, ratio, total, publishes []float64
	for _, r := range runs {
		episodes += float64(r.stats.CostEpisodes + r.stats.LatencyEpisodes)
		costEps += float64(r.stats.CostEpisodes)
		latEps += float64(r.stats.LatencyEpisodes)
		lifeS += r.total.Seconds()
		costS += r.cost.Seconds()
		latS += r.latency.Seconds()
		demo = append(demo, r.demo.Seconds())
		ratio = append(ratio, r.stats.CostRatio)
		total = append(total, r.total.Seconds())
		publishes = append(publishes, float64(r.stats.PolicyVersion))
	}
	m := map[string]metric{}
	if opt.trace {
		m["lfd.demo_s"] = metric{zeroIfNaN(median(demo)), "s"}
		m["rl.cost_eps_per_s"] = metric{share(costEps, costS), "1/s"}
		m["rl.latency_eps_per_s"] = metric{share(latEps, latS), "1/s"}
		m["paramserver.publishes"] = metric{zeroIfNaN(median(publishes)), "count"}
		m["setup.new_s"] = metric{median(setups), "s"}
		m["setup.train_s"] = metric{zeroIfNaN(median(total)), "s"}
	} else {
		m["setup_s"] = metric{median(setups), "s"}
		m["ops_per_s"] = metric{share(episodes, lifeS), "1/s"}
		m["learned_cost_ratio"] = metric{zeroIfNaN(median(ratio)), "ratio"}
		m["served_cost_ratio"] = metric{zeroIfNaN(ev.costRatio), "ratio"}
		m["work_ratio"] = metric{zeroIfNaN(ev.workRatio), "ratio"}
		m["rss_peak_mb"] = metric{peak, "MB"}
		m["ok_share"] = metric{1 - share(float64(res.Failed), float64(res.Attempted)), "share"}
	}
	res.Metrics = m
	return res, phases, nil
}
