package main

import (
	"time"

	"handsfree"
	"handsfree/internal/bootstrap"
	"handsfree/internal/featurize"
	"handsfree/internal/paramserver"
	"handsfree/internal/planspace"
	"handsfree/internal/rl"
)

// probeEpisodes is how many cost-phase episodes the learning probe trains
// in each round of a traced run: twelve policy updates at batch size 16.
const probeEpisodes = 192

// learnProbe is the traced run's probe of the learning layers on the
// workload's own queries. It runs the lifecycle's cost phase as
// Service.StartTraining builds it — the robust bootstrap agent (Adam,
// hidden 128/64, batch 16) over a planspace env with the cost-model
// reward — on one goroutine instead of the asynchronous actors, and
// publishes every policy update to a paramserver, as the lifecycle does.
// The cost phase never executes a plan, so the engine defect that keeps
// the train workload out of BENCHMARK.json cannot reach it. Each call is
// timed from here; nothing inside the program is instrumented.
type learnProbe struct {
	agent    *bootstrap.Agent
	ps       *paramserver.Server
	maxSteps int
	// episodeUs, updateMs and publishUs hold each sampled rollout, each
	// batched policy update and each publish-and-repack, as timed.
	episodeUs, updateMs, publishUs []float64
}

func newLearnProbe(svc *handsfree.Service, qs []*handsfree.Query, maxRels int, seed int64) *learnProbe {
	sys := svc.System()
	env := planspace.NewEnv(planspace.Config{
		Space: featurize.NewSpace(maxRels, sys.Est), Planner: sys.Planner, Queries: qs, Seed: seed,
	})
	agent := bootstrap.New(bootstrap.Config{Env: env, Robust: true, Agent: rl.ReinforceConfig{
		Hidden: []int{128, 64}, LR: 1e-3, BatchSize: 16, Precision: sys.Precision, Seed: seed,
	}})
	return &learnProbe{
		agent:    agent,
		ps:       paramserver.New(agent.RL.Policy.CloneForInference()),
		maxSteps: 4*maxRels + 8,
	}
}

// run trains n episodes. Each is a sampled rollout under the cost reward
// followed by Observe, which every BatchSize-th episode runs the policy
// update; after an update the policy is published and the served snapshot
// repacked, as serving's next read would.
func (p *learnProbe) run(n int) {
	learner := p.agent.RL
	for i := 0; i < n; i++ {
		t0 := time.Now()
		traj := rl.RunEpisode(p.agent.Cfg.Env, learner.Sample, p.maxSteps)
		t1 := time.Now()
		p.episodeUs = append(p.episodeUs, us(int64(t1.Sub(t0))))
		if !learner.Observe(traj) {
			continue
		}
		t2 := time.Now()
		p.updateMs = append(p.updateMs, ms(int64(t2.Sub(t1))))
		p.ps.Publish(learner.Policy.CloneForInference(), learner.Updates)
		p.ps.Latest().Packed()
		p.publishUs = append(p.publishUs, us(int64(time.Since(t2))))
	}
}

func (p *learnProbe) metrics(m map[string]metric) {
	m["rl.cost_episode_us.p50"] = metric{zeroIfNaN(quantile(p.episodeUs, 0.5)), "us"}
	m["rl.update_ms.p50"] = metric{zeroIfNaN(quantile(p.updateMs, 0.5)), "ms"}
	m["paramserver.publish_us.p50"] = metric{zeroIfNaN(quantile(p.publishUs, 0.5)), "us"}
}
