package serve

import (
	"fmt"

	"ramsis/internal/adapt"
	"ramsis/internal/admit"
	"ramsis/internal/core"
	"ramsis/internal/dist"
	"ramsis/internal/profile"
	"ramsis/internal/sched"
	"ramsis/internal/sim"
	"ramsis/internal/telemetry"
	"ramsis/internal/tenant"
)

// ShardedConfig configures a localhost multi-tenant deployment: Shards
// frontend shards of WorkersPerShard workers each, a shared tenant plane
// (weighted-fair admission, per-tenant policies and degrade levels), and a
// gateway routing by tenant.
type ShardedConfig struct {
	Models profile.Set
	// Tenants is the serving contract set (required, non-empty).
	Tenants []tenant.Tenant
	// TenantFile, when set, enables POST /reload on the gateway.
	TenantFile string
	Shards     int
	// WorkersPerShard is each shard's worker pool size.
	WorkersPerShard int
	TimeScale       float64
	LatencyStdDev   float64
	Seed            int64
	// D is the FLD resolution for the per-tenant policy solves (default
	// from core.Config).
	D int
	// MaxQueue bounds each shard's admitted backlog per worker (default
	// from core.Config).
	MaxQueue int
	// QueueSlack multiplies the online queue cap beyond the MDP bound N_w
	// (default 1). The MDP bound is capped at the profiled max batch, but
	// at high time scales a wall-clock stall turns into a burst of modeled
	// arrivals; extra online slack absorbs the burst (the solved policy's
	// overflow action covers queues past N_w) instead of shedding it.
	QueueSlack int
	// ShardBy names the sharding policy: "hash"/"rendezvous" (default)
	// pins each tenant to one shard; "p2c" spreads by queue depth.
	ShardBy string
	// Balancing is each shard's intra-shard balancer (default
	// round-robin) and the strategy every tenant policy is solved for.
	Balancing core.Balancing
	// Addr is the gateway listen address (default random localhost port).
	Addr string
	// Fair overrides the weighted-fair admitter knobs (zero values take
	// the defaults: capacity = Σ contracted rates, 2 s bursts).
	Fair tenant.FairConfig
	// DegradeDepth > 0 arms a per-tenant degrader with that max level.
	DegradeDepth int
	// Adaptive runs each tenant's selector through §6's drift adapter
	// (background re-solve on drift) instead of §3.2.2's coverage adapter
	// over the tenant's ladder.
	Adaptive bool
	// Telemetry is the registry shared by every shard, the plane, and the
	// gateway (default: a fresh one).
	Telemetry *telemetry.Registry
	// TraceWriter, when set, streams every component's trace fragments —
	// gateway routes, shard dispatches, worker inferences — into one JSONL
	// stream, so a single file stitches end to end.
	TraceWriter *telemetry.TraceWriter

	// net is the network the workers and the gateway listen on and the
	// shards dial through (default tcp).
	net network
	// clock is the plane's one modeled clock, which every shard, the
	// gateway and the tenant plane read (default a wall clock at
	// TimeScale).
	clock clock
}

// ShardedCluster is a running sharded multi-tenant deployment.
type ShardedCluster struct {
	Gateway  *Gateway
	Plane    *TenantPlane
	shards   []*Frontend
	pool     *workerPool
	adapters []*adapt.Adapter // one per tenant
}

// StartShardedCluster solves one policy set per tenant (sized to the
// tenant's SLO and contracted rate), boots Shards×WorkersPerShard worker
// servers and the frontend shards over them, and fronts everything with a
// tenant-routing gateway. Every single-tenant mechanism is the N=1 special
// case: one tenant, one shard reduces to StartCluster plus the fair
// admitter metering its contracted rate.
func StartShardedCluster(cfg ShardedConfig) (*ShardedCluster, error) {
	if cfg.Shards < 1 {
		return nil, fmt.Errorf("serve: sharded cluster needs at least one shard")
	}
	if cfg.WorkersPerShard < 1 {
		return nil, fmt.Errorf("serve: sharded cluster needs at least one worker per shard")
	}
	clk := clock(newWallClock(&cfg.TimeScale))
	if cfg.clock != nil {
		clk = cfg.clock
	}
	if cfg.Telemetry == nil {
		cfg.Telemetry = telemetry.NewRegistry()
	}
	reg, err := tenant.NewRegistry(cfg.Tenants)
	if err != nil {
		return nil, err
	}
	sharder, err := tenant.NewSharder(cfg.ShardBy, cfg.Seed)
	if err != nil {
		return nil, err
	}

	// Hash sharding pins a tenant's whole stream to one shard, so its
	// policy must be solved at the full contracted rate; p2c spreads the
	// stream across shards evenly in expectation.
	loadScale := 1.0
	if _, p2c := sharder.(*tenant.P2C); p2c {
		loadScale = 1.0 / float64(cfg.Shards)
	}
	// Tenants share each shard's workers rather than partitioning them, so
	// every tenant's policy must be solved against the shard's aggregate
	// contracted rate: a policy solved at only its own tenant's rate would
	// pick accuracy-optimal models the workers cannot sustain once the
	// other tenants' admitted streams land on the same queues. What stays
	// per-tenant is the SLO, so latency-tolerant tenants still resolve to
	// more accurate models than interactive ones.
	shardRate := reg.TotalRate() * loadScale
	// One decision ring plane-wide: every shard's admit/shed/select records
	// and every adapter's hot-swaps land in the same buffer the gateway
	// serves at /debug/decisions.
	decisions := telemetry.NewDecisionBuffer(0)
	selectors := make(map[string]sched.Selector, len(cfg.Tenants))
	var fallback sched.Selector
	var adapters []*adapt.Adapter
	for _, t := range cfg.Tenants {
		base := core.Config{
			Models:    cfg.Models,
			SLO:       t.SLO(),
			Workers:   cfg.WorkersPerShard,
			Arrival:   dist.NewPoisson(1),
			D:         cfg.D,
			MaxQueue:  cfg.MaxQueue,
			Balancing: cfg.Balancing,
		}
		rate := shardRate
		set := core.NewPolicySet(base, nil)
		if err := set.GenerateLoads([]float64{rate}); err != nil {
			return nil, fmt.Errorf("serve: solving tenant %s: %w", t.Name, err)
		}
		// Background either way: never stall dispatch behind a generation.
		var adapter *adapt.Adapter
		if !cfg.Adaptive {
			adapter = adapt.NewCoverage(set, true, cfg.Telemetry)
		} else if adapter, err = adapt.New(adapt.Config{
			Base:       base,
			Background: true,
			Telemetry:  cfg.Telemetry,
			Decisions:  decisions,
			Tenant:     t.Name,
		}, set.Policies()[0]); err != nil {
			return nil, fmt.Errorf("serve: adapting tenant %s: %w", t.Name, err)
		}
		adapters = append(adapters, adapter)
		sel := sched.AdaptiveSelector(adapter)
		selectors[t.Name] = sel
		if fallback == nil {
			fallback = sel // hot-reloaded tenants borrow the first solve
		}
	}

	// The inner admitter bounds each admit against the enqueueing shard's
	// backlog (Request.Outstanding is shard-local), enforcing per shard
	// the MaxQueue state bound the MDPs assume.
	maxQueue := cfg.MaxQueue
	if maxQueue <= 0 {
		maxQueue = core.DefaultMaxQueue
	}
	slack := cfg.QueueSlack
	if slack < 1 {
		slack = 1
	}
	inner := admit.Cap{
		Limit: maxQueue * cfg.WorkersPerShard * slack,
		Est:   core.NewWaitEstimator(cfg.Models, cfg.WorkersPerShard),
	}
	fairCfg := cfg.Fair
	if fairCfg.BorrowReserve == 0 {
		// Default: reserve half the shard queue cap for within-share
		// traffic, so an overloader's borrowed backlog can never crowd
		// compliant tenants out of the queue (set negative to disable).
		fairCfg.BorrowReserve = inner.Limit / 2
	}
	fair := tenant.NewFairAdmitter(reg, inner, fairCfg)
	plane := newTenantPlane(TenantPlaneConfig{
		Registry:     reg,
		Fair:         fair,
		Selectors:    selectors,
		Fallback:     fallback,
		DegradeDepth: cfg.DegradeDepth,
		Telemetry:    cfg.Telemetry,
	}, clk)

	pool, err := startWorkerPool(cfg.net, cfg.Shards*cfg.WorkersPerShard, cfg.Models, cfg.LatencyStdDev, cfg.TimeScale, cfg.Seed, cfg.TraceWriter)
	if err != nil {
		return nil, err
	}
	c := &ShardedCluster{Plane: plane, pool: pool, adapters: adapters}
	for s := 0; s < cfg.Shards; s++ {
		lo := s * cfg.WorkersPerShard
		fe := &Frontend{
			Profiles:     cfg.Models,
			TimeScale:    cfg.TimeScale,
			Workers:      pool.urls[lo : lo+cfg.WorkersPerShard],
			Plane:        plane,
			Shard:        s,
			WorkerOffset: lo,
			Balancer:     sim.BalancerFor(cfg.Balancing, cfg.Seed+int64(s)),
			process:      process{Telemetry: cfg.Telemetry, TraceWriter: cfg.TraceWriter, net: cfg.net, clock: clk},
			Decisions:    decisions,
		}
		if err := fe.Start(); err != nil {
			c.Stop()
			return nil, err
		}
		c.shards = append(c.shards, fe)
	}

	gwTraces := telemetry.NewTraceBuffer(0)
	sources := []*telemetry.TraceBuffer{gwTraces}
	for _, fe := range c.shards {
		sources = append(sources, fe.Traces)
	}
	// Worker rings feed the gateway's merged /debug/traces alongside its
	// own and the shards'.
	for _, w := range pool.workers {
		sources = append(sources, w.Traces)
	}
	c.Gateway = &Gateway{
		Shards:       c.shards,
		Sharder:      sharder,
		Plane:        plane,
		Addr:         cfg.Addr,
		TenantFile:   cfg.TenantFile,
		process:      process{Telemetry: cfg.Telemetry, Traces: gwTraces, TraceWriter: cfg.TraceWriter, net: cfg.net},
		Decisions:    decisions,
		TraceSources: sources,
	}
	if err := c.Gateway.Start(); err != nil {
		c.Stop()
		return nil, err
	}
	return c, nil
}

// URL returns the gateway's base URL.
func (c *ShardedCluster) URL() string { return c.Gateway.URL() }

// Shards returns the started frontend shards.
func (c *ShardedCluster) Shards() []*Frontend { return c.shards }

// Stop tears down the gateway, every shard, every tenant's adapter — each
// waits for a generation in flight — and every worker; repeating it does
// nothing.
func (c *ShardedCluster) Stop() {
	if c.Gateway != nil {
		_ = c.Gateway.Stop()
	}
	for _, fe := range c.shards {
		_ = fe.Stop()
	}
	for _, a := range c.adapters {
		a.Stop()
	}
	c.pool.stop()
}
