package serve

import (
	"fmt"

	"ramsis/internal/admit"
	"ramsis/internal/lb"
	"ramsis/internal/monitor"
	"ramsis/internal/profile"
	"ramsis/internal/sched"
	"ramsis/internal/sim"
	"ramsis/internal/telemetry"
)

// ClusterConfig configures a self-contained localhost deployment: N worker
// servers plus the live frontend.
type ClusterConfig struct {
	Models    profile.Set
	Workers   int
	SLO       float64
	TimeScale float64
	// LatencyStdDev adds the §7.3.1 inference jitter in seconds (0 =
	// deterministic p95 latencies).
	LatencyStdDev float64
	Select        sched.Selector
	Monitor       monitor.Monitor
	Seed          int64
	// Balancer routes queries across worker queues (default round-robin).
	Balancer lb.Balancer
	// Addr is the frontend listen address (default random localhost port).
	Addr string
	// Telemetry is shared by the frontend's /metrics; workers keep their
	// own registries (each serves its own /metrics endpoint).
	Telemetry *telemetry.Registry
	// TraceWriter streams each completed query trace as JSONL.
	TraceWriter *telemetry.TraceWriter
	// Admit screens arrivals at the frontend; shed queries answer 429.
	Admit admit.Admitter
	// Degrade clamps model selection to faster models under confirmed
	// overload.
	Degrade *admit.Degrader
	// RetryBudget gates the frontend's dispatch failover.
	RetryBudget *admit.RetryBudget
}

// latencyModel returns the workers' inference-latency model: the profiled
// p95 exactly, or with the §7.3.1 jitter when stdDev > 0.
func latencyModel(stdDev float64) sim.LatencyModel {
	if stdDev > 0 {
		return sim.Stochastic{StdDev: stdDev}
	}
	return sim.Deterministic{}
}

// Cluster is a running localhost deployment.
type Cluster struct {
	Frontend *Frontend
	workers  []*Worker
}

// StartCluster boots the workers and the frontend. Stop releases
// everything.
func StartCluster(cfg ClusterConfig) (*Cluster, error) {
	if cfg.Workers < 1 {
		return nil, fmt.Errorf("serve: cluster needs at least one worker")
	}
	if cfg.Select == nil {
		return nil, fmt.Errorf("serve: cluster needs a selector")
	}
	lat := latencyModel(cfg.LatencyStdDev)
	c := &Cluster{}
	urls := make([]string, cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		w := NewWorker(cfg.Models, lat, cfg.TimeScale, cfg.Seed+int64(i))
		if err := w.Start(); err != nil {
			c.Stop()
			return nil, err
		}
		c.workers = append(c.workers, w)
		urls[i] = w.URL()
	}
	c.Frontend = &Frontend{
		Profiles:    cfg.Models,
		SLO:         cfg.SLO,
		TimeScale:   cfg.TimeScale,
		Workers:     urls,
		Select:      cfg.Select,
		Monitor:     cfg.Monitor,
		Balancer:    cfg.Balancer,
		Addr:        cfg.Addr,
		Telemetry:   cfg.Telemetry,
		TraceWriter: cfg.TraceWriter,
		Admit:       cfg.Admit,
		Degrade:     cfg.Degrade,
		RetryBudget: cfg.RetryBudget,
	}
	if err := c.Frontend.Start(); err != nil {
		c.Stop()
		return nil, err
	}
	return c, nil
}

// URL returns the frontend's base URL.
func (c *Cluster) URL() string { return c.Frontend.URL() }

// Stop shuts down the frontend and every worker.
func (c *Cluster) Stop() {
	if c.Frontend != nil {
		_ = c.Frontend.Stop()
	}
	for _, w := range c.workers {
		_ = w.Stop()
	}
}
