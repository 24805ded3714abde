package serve

import (
	"fmt"

	"ramsis/internal/admit"
	"ramsis/internal/core"
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
	// Balancing routes queries across worker queues (default round-robin);
	// Select's policies should be solved for the same value.
	Balancing core.Balancing
	// Addr is the frontend listen address (default random localhost port).
	Addr string
	// Telemetry is shared by the frontend's /metrics; workers keep their
	// own registries (each serves its own /metrics endpoint).
	Telemetry *telemetry.Registry
	// TraceWriter streams each completed query trace as JSONL; the
	// workers stream none.
	TraceWriter *telemetry.TraceWriter
	// Admit screens arrivals at the frontend; shed queries answer 429.
	Admit admit.Admitter
	// Degrade clamps model selection to faster models under confirmed
	// overload.
	Degrade *admit.Degrader
	// RetryBudget gates the frontend's dispatch failover.
	RetryBudget *admit.RetryBudget

	// net is the network every process of the cluster listens and dials
	// on (default tcp).
	net network
}

// workerPool is a cluster's scalar workers and their base URLs, by global
// index.
type workerPool struct {
	workers []*Worker
	urls    []string
}

// startWorkerPool boots n scalar workers on nw, worker i named
// "worker-<i>", indexed i, seeded seed+i, jittered by latencyStdDev
// (§7.3.1) and streaming its fragments to tw; on error it stops those
// already started.
func startWorkerPool(nw network, n int, models profile.Set, latencyStdDev, timeScale float64, seed int64, tw *telemetry.TraceWriter) (*workerPool, error) {
	var lat sim.LatencyModel = sim.Deterministic{}
	if latencyStdDev > 0 {
		lat = sim.Stochastic{StdDev: latencyStdDev}
	}
	pool := &workerPool{}
	for i := 0; i < n; i++ {
		w := NewWorker(models, lat, timeScale, seed+int64(i))
		w.Name, w.Index, w.TraceWriter, w.net = fmt.Sprintf("worker-%d", i), i, tw, nw
		if err := w.Start(); err != nil {
			pool.stop()
			return nil, err
		}
		pool.workers = append(pool.workers, w)
		pool.urls = append(pool.urls, w.URL())
	}
	return pool, nil
}

// stop stops every worker.
func (p *workerPool) stop() {
	for _, w := range p.workers {
		_ = w.Stop()
	}
}

// Cluster is a running localhost deployment.
type Cluster struct {
	Frontend *Frontend
	pool     *workerPool
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
	pool, err := startWorkerPool(cfg.net, cfg.Workers, cfg.Models, cfg.LatencyStdDev, cfg.TimeScale, cfg.Seed, nil)
	if err != nil {
		return nil, err
	}
	c := &Cluster{pool: pool}
	c.Frontend = &Frontend{
		Profiles:    cfg.Models,
		SLO:         cfg.SLO,
		TimeScale:   cfg.TimeScale,
		Workers:     pool.urls,
		Select:      cfg.Select,
		Monitor:     cfg.Monitor,
		Balancer:    sim.BalancerFor(cfg.Balancing, cfg.Seed),
		Addr:        cfg.Addr,
		process:     process{Telemetry: cfg.Telemetry, TraceWriter: cfg.TraceWriter, net: cfg.net},
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

// Stop shuts down the frontend and every worker; repeating it does nothing.
func (c *Cluster) Stop() {
	_ = c.Frontend.Stop()
	c.pool.stop()
}
