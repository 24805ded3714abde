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

	mu     sync.RWMutex
	states map[string]*tenantState
}

// tenantState is one tenant's live serving state: its account with the
// dispatch core (SLO, degrader, counters, attainment tracker) plus what the
// frontend consults per decision — selector and rate monitor. A
// single-tenant frontend runs one, unnamed.
type tenantState struct {
	sched.Account
	sel sched.Selector

	// monMu guards mon: Observe times must be non-decreasing, and arrivals
	// for one tenant race across handlers and shards.
	monMu sync.Mutex
	mon   monitor.Monitor // nil: unmonitored, the load reads 0
	// rateGa is the live monitored-rate gauge.
	rateGa *telemetry.Gauge
}

// monitorWindow is the per-tenant rate monitor window in modeled seconds,
// matching the single-tenant frontends.
const monitorWindow = 0.5

// TenantPlaneConfig configures NewTenantPlane.
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
	// Now supplies the plane's modeled clock for scrape-time SLO gauges
	// (the sharded cluster passes its shared epoch); nil falls back to
	// each tracker's last observation time.
	Now       func() float64
	Telemetry *telemetry.Registry
}

// NewTenantPlane builds the shared per-tenant state for a sharded
// deployment.
func NewTenantPlane(cfg TenantPlaneConfig) *TenantPlane {
	if cfg.Telemetry == nil {
		cfg.Telemetry = telemetry.NewRegistry()
	}
	p := &TenantPlane{cfg: cfg, states: map[string]*tenantState{}}
	for _, t := range cfg.Registry.All() {
		sel := cfg.Selectors[t.Name]
		if sel == nil {
			sel = cfg.Fallback
		}
		p.states[t.Name] = p.newState(t, sel)
	}
	return p
}

func (p *TenantPlane) newState(t tenant.Tenant, sel sched.Selector) *tenantState {
	cfg := p.cfg
	st := &tenantState{
		Account: sched.NewAccount(cfg.Telemetry, t.Name, t.SLO(), cfg.Now),
		sel:     sel,
		mon:     monitor.NewMovingAverage(monitorWindow),
		rateGa:  cfg.Telemetry.GaugeVec(telemetry.MetricTenantRate, "tenant").With(t.Name),
	}
	if cfg.DegradeDepth > 0 {
		st.Degrade = admit.NewDegrader(admit.DegradeConfig{MaxLevel: cfg.DegradeDepth, EnterWait: st.SLO})
		gauge := cfg.Telemetry.GaugeVec(telemetry.MetricTenantDegradeLevel, "tenant").With(t.Name)
		st.Degrade.OnChange = func(level int, _ bool) { gauge.Set(float64(level)) }
	}
	return st
}

// SLOTracker returns the named tenant's attainment tracker (nil for
// unknown tenants) — tests and the soak harness cross-check burn rates
// against it.
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

// observe feeds one arrival into the tenant's rate monitor, refreshes its
// live rate gauge and returns the rate.
func (st *tenantState) observe(now float64) float64 {
	if st.mon == nil {
		return 0
	}
	st.monMu.Lock()
	st.mon.Observe(now)
	rate := st.mon.Load(now)
	st.monMu.Unlock()
	st.rateGa.Set(rate)
	return rate
}

// load reads the tenant's monitored arrival rate.
func (st *tenantState) load(now float64) float64 {
	if st.mon == nil {
		return 0
	}
	st.monMu.Lock()
	defer st.monMu.Unlock()
	return st.mon.Load(now)
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
		goodput := 0.0
		if offered := served + shed; offered > 0 {
			goodput = float64(served-violations) / float64(offered)
		}
		level := 0
		if st.Degrade != nil {
			level = st.Degrade.Level()
		}
		out[st.Name] = TenantStats{
			Class:        t.Class,
			SLOMS:        t.SLOMS,
			Weight:       t.Weight,
			ShareQPS:     p.cfg.Fair.Share(st.Name),
			RateQPS:      st.load(now),
			Served:       served,
			Violations:   violations,
			Admitted:     count(telemetry.MetricTenantAdmitted),
			Borrowed:     count(telemetry.MetricTenantBorrowed),
			Shed:         shed,
			Goodput:      goodput,
			DegradeLevel: level,
		}
	}
	return out
}
