package serve

import (
	"sync"

	"ramsis/internal/admit"
	"ramsis/internal/monitor"
	"ramsis/internal/sched"
	"ramsis/internal/telemetry"
	"ramsis/internal/tenant"
)

// TenantPlane is the per-tenant control state shared by every frontend
// shard: weighted-fair admission over the tenant registry, and for each
// tenant its own SLO, rate monitor, model selector (optionally the PR 3
// adapt loop), and degraded-mode level. A tenant's state is global — its
// traffic may land on any shard (P2C sharding splits it), and rate
// monitoring or degrade decisions must see the whole tenant, not one
// shard's slice.
type TenantPlane struct {
	cfg TenantPlaneConfig
	// clock is the plane's modeled time, the one its shards and gateway
	// read: the scrape-time SLO and rate gauges read it.
	clock clock

	mu     sync.RWMutex
	states map[string]*tenantState
}

// tenantState is one tenant's live serving state: its account with the
// dispatch core (SLO, degrader, rate monitor, counters, attainment tracker)
// plus the selector the frontend consults per decision. A single-tenant
// frontend runs one, unnamed. The monitor is a monitor.Locked: arrivals for
// one tenant race across handlers and shards.
type tenantState struct {
	sched.Account
	sel sched.Selector
}

// monitorWindow is the per-tenant rate monitor window in modeled seconds,
// matching the single-tenant frontends.
const monitorWindow = 0.5

// TenantPlaneConfig configures the tenant plane StartShardedCluster builds.
type TenantPlaneConfig struct {
	Registry *tenant.Registry
	// Fair is the shared weighted-fair admitter (built over Registry).
	Fair *tenant.FairAdmitter
	// Selectors maps tenant name to its model selector (per-tenant policy
	// or adapt loop). Tenants without an entry use Fallback.
	Selectors map[string]sched.Selector
	// Fallback serves tenants with no dedicated selector (required).
	Fallback sched.Selector
	// DegradeDepth > 0 gives every tenant its own degrader with that max
	// level, replacing the single global clamp.
	DegradeDepth int
	Telemetry    *telemetry.Registry
}

// newTenantPlane builds the shared per-tenant state for a sharded
// deployment on the deployment's clock.
func newTenantPlane(cfg TenantPlaneConfig, clk clock) *TenantPlane {
	p := &TenantPlane{cfg: cfg, clock: clk, states: map[string]*tenantState{}}
	for _, t := range cfg.Registry.All() {
		sel := cfg.Selectors[t.Name]
		if sel == nil {
			sel = cfg.Fallback
		}
		p.states[t.Name] = p.newState(t, sel)
	}
	cfg.Telemetry.Help(telemetry.MetricTenantGoodput, "Per-tenant goodput fraction: in-SLO served / offered.")
	return p
}

func (p *TenantPlane) newState(t tenant.Tenant, sel sched.Selector) *tenantState {
	cfg := p.cfg
	st := &tenantState{Account: sched.NewAccount(cfg.Telemetry, t.Name, t.SLO(), p.clock.now), sel: sel}
	st.Monitor = monitor.NewLocked(monitor.NewMovingAverage(monitorWindow))
	registerRateGauge(cfg.Telemetry, st, t.Name, p.clock.now)
	count := func(metric string) *telemetry.Counter { return cfg.Telemetry.CounterVec(metric, "tenant").With(t.Name) }
	served, violations := count(telemetry.MetricTenantQueries), count(telemetry.MetricTenantViolations)
	shed := count(telemetry.MetricTenantShed)
	cfg.Telemetry.GaugeFunc(telemetry.MetricTenantGoodput, func() float64 {
		return goodput(served.Value(), violations.Value(), shed.Value())
	}, "tenant", t.Name)
	if cfg.DegradeDepth > 0 {
		st.Degrade = admit.NewDegrader(admit.DegradeConfig{MaxLevel: cfg.DegradeDepth, EnterWait: st.SLO})
		gauge := cfg.Telemetry.GaugeVec(telemetry.MetricTenantDegradeLevel, "tenant").With(t.Name)
		st.Degrade.OnChange = func(level int, _ bool) { gauge.Set(float64(level)) }
	}
	return st
}

// SLOTracker returns the named tenant's attainment tracker (nil for
// unknown tenants), which tests cross-check burn rates against.
func (p *TenantPlane) SLOTracker(name string) *telemetry.SLOTracker {
	st, ok := p.state(name)
	if !ok {
		return nil
	}
	return st.Attainment
}

// Registry returns the tenant registry the plane serves.
func (p *TenantPlane) Registry() *tenant.Registry { return p.cfg.Registry }

// state resolves a request's tenant label to its serving state. Unknown
// tenants return ok == false; tenants registered after startup (config
// hot-reload) get a state lazily, running the fallback selector.
func (p *TenantPlane) state(name string) (*tenantState, bool) {
	t, ok := p.cfg.Registry.Resolve(name)
	if !ok {
		return nil, false
	}
	p.mu.RLock()
	st := p.states[t.Name]
	p.mu.RUnlock()
	if st != nil {
		return st, true
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if st = p.states[t.Name]; st == nil {
		st = p.newState(t, p.cfg.Fallback)
		p.states[t.Name] = st
	}
	return st, true
}

// goodput is in-SLO served over offered (served + shed), 0 before any
// query is offered.
func goodput(served, violations, shed float64) float64 {
	if offered := served + shed; offered > 0 {
		return (served - violations) / offered
	}
	return 0
}

// registerRateGauge exposes the tenant's monitored arrival rate as
// ramsis_tenant_rate_qps, read from its account at scrape time.
func registerRateGauge(reg *telemetry.Registry, st *tenantState, name string, now func() float64) {
	reg.GaugeFunc(telemetry.MetricTenantRate, func() float64 { return st.Load(now()) }, "tenant", name)
}

// TenantStats is one tenant's /stats breakdown.
type TenantStats struct {
	Class        string  `json:"class,omitempty"`
	SLOMS        float64 `json:"sloMs"`
	Weight       float64 `json:"weight"`
	ShareQPS     float64 `json:"shareQps"` // current fair-share admission rate
	RateQPS      float64 `json:"rateQps"`  // monitored arrival rate
	Served       int     `json:"served"`
	Violations   int     `json:"violations"`
	Admitted     int     `json:"admitted"`
	Borrowed     int     `json:"borrowed"`
	Shed         int     `json:"shed"`
	Goodput      float64 `json:"goodput"` // in-SLO served / offered
	DegradeLevel int     `json:"degradeLevel"`
}

// Stats snapshots every tenant's breakdown from the same series /metrics
// exposes.
func (p *TenantPlane) Stats(now float64) map[string]TenantStats {
	p.mu.RLock()
	states := make([]*tenantState, 0, len(p.states))
	for _, st := range p.states {
		states = append(states, st)
	}
	p.mu.RUnlock()
	out := make(map[string]TenantStats, len(states))
	for _, st := range states {
		t, _ := p.cfg.Registry.Lookup(st.Name)
		count := func(metric string) int {
			return int(p.cfg.Telemetry.CounterVec(metric, "tenant").With(st.Name).Value())
		}
		served, violations := count(telemetry.MetricTenantQueries), count(telemetry.MetricTenantViolations)
		shed := count(telemetry.MetricTenantShed)
		level := 0
		if st.Degrade != nil {
			level = st.Degrade.Level()
		}
		out[st.Name] = TenantStats{
			Class:        t.Class,
			SLOMS:        t.SLOMS,
			Weight:       t.Weight,
			ShareQPS:     p.cfg.Fair.Share(st.Name),
			RateQPS:      st.Load(now),
			Served:       served,
			Violations:   violations,
			Admitted:     count(telemetry.MetricTenantAdmitted),
			Borrowed:     count(telemetry.MetricTenantBorrowed),
			Shed:         shed,
			Goodput:      goodput(float64(served), float64(violations), float64(shed)),
			DegradeLevel: level,
		}
	}
	return out
}
