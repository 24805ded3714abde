package sim

import (
	"math"
	"testing"

	"ramsis/internal/profile"
	"ramsis/internal/telemetry"
	"ramsis/internal/tenant"
)

// toQueries converts a labeled tenant workload into engine queries.
func toQueries(evs []tenant.Arrival) []Query {
	qs := make([]Query, len(evs))
	for i, ev := range evs {
		qs[i] = Query{ID: i, Arrival: ev.T, Tenant: ev.Tenant}
	}
	return qs
}

func TestRunStaysSingleTenant(t *testing.T) {
	ps := imageProfiles()
	e := NewEngine(ps, 0.150, 1, Deterministic{}, &FixedModel{Model: 0, MaxBatch: 8}, 1)
	m := e.Run([]float64{0, 0.001})
	if m.Tenants != nil {
		t.Errorf("single-tenant run populated Tenants: %+v", m.Tenants)
	}
	if m.Served != 2 {
		t.Errorf("served = %d, want 2", m.Served)
	}
}

func TestPerTenantSLOJudgesViolations(t *testing.T) {
	ps := imageProfiles()
	slow, _ := indexOf(ps, "efficientnet_v2_s")
	lat := ps.Profiles[slow].BatchLatency(1)
	// Engine SLO would pass everything; "strict" tenant's own SLO is below
	// the model latency, "lax" tenant's is above it.
	e := NewEngine(ps, 10*lat, 1, Deterministic{}, &FixedModel{Model: slow, MaxBatch: 1}, 1)
	e.TenantSLOs = map[string]float64{"strict": lat / 2, "lax": 10 * lat}
	gap := 2 * lat // serialized service, no queueing
	qs := []Query{
		{ID: 0, Arrival: 0, Tenant: "strict"},
		{ID: 1, Arrival: gap, Tenant: "lax"},
		{ID: 2, Arrival: 2 * gap, Tenant: "strict"},
	}
	m := e.RunQueries(qs)
	if m.Served != 3 {
		t.Fatalf("served = %d, want 3", m.Served)
	}
	st, lx := m.Tenants["strict"], m.Tenants["lax"]
	if st == nil || lx == nil {
		t.Fatalf("missing tenant metrics: %+v", m.Tenants)
	}
	if st.Violations != 2 || st.Served != 2 {
		t.Errorf("strict tenant %+v, want 2 served 2 violations (own SLO)", st)
	}
	if lx.Violations != 0 || lx.Served != 1 {
		t.Errorf("lax tenant %+v, want 1 served 0 violations", lx)
	}
	// Engine-wide count uses per-query SLOs too.
	if m.Violations != 2 {
		t.Errorf("violations = %d, want 2", m.Violations)
	}
}

// TestFairnessUnderTenantOverload is the sim half of the PR's core claim:
// with one tenant offering 4× its contract, weighted-fair admission keeps
// every compliant tenant's goodput ≥ 0.9 while the overloader is clamped
// to roughly its fair share — and still makes progress.
func TestFairnessUnderTenantOverload(t *testing.T) {
	ps := imageProfiles()
	tenants := []tenant.Tenant{
		{Name: "interactive", SLOMS: 150, Weight: 2, RateQPS: 100},
		{Name: "standard", SLOMS: 300, Weight: 1, RateQPS: 50},
		{Name: "batch", SLOMS: 1000, Weight: 1, RateQPS: 50},
	}
	reg, err := tenant.NewRegistry(tenants)
	if err != nil {
		t.Fatal(err)
	}
	fair := tenant.NewFairAdmitter(reg, nil, tenant.FairConfig{})
	dur := 30.0
	evs := tenant.ArrivalsScaled(tenants, map[string]float64{"standard": 4}, dur, 11)

	tel := telemetry.NewRegistry()
	e := NewEngine(ps, 0.150, 8, Deterministic{}, &FixedModel{Model: 0, MaxBatch: 16}, 1)
	e.TenantSLOs = map[string]float64{}
	for _, tn := range tenants {
		e.TenantSLOs[tn.Name] = tn.SLO()
	}
	e.FairAdmit = fair
	e.Telemetry = tel
	m := e.RunQueries(toQueries(evs))

	for _, name := range []string{"interactive", "batch"} {
		tm := m.Tenants[name]
		if tm == nil {
			t.Fatalf("no metrics for %s", name)
		}
		if g := tm.GoodputRate(); g < 0.9 {
			t.Errorf("compliant tenant %s goodput %.3f < 0.9 (%+v)", name, g, tm)
		}
	}
	over := m.Tenants["standard"]
	if over == nil || over.Shed == 0 {
		t.Fatalf("4× tenant was never shed: %+v", over)
	}
	if over.Served == 0 {
		t.Error("4× tenant starved")
	}
	// Clamped near fair share (50 QPS) plus startup bursts, not 200 QPS.
	if got, limit := float64(over.Served), 50*dur+600; got > limit {
		t.Errorf("4× tenant served %v, want ≲ %v", got, limit)
	}
	// The same story must be visible in telemetry (the soak reads it there).
	shed := tel.Counter(telemetry.MetricTenantShed, "tenant", "standard").Value()
	if float64(over.Shed) != shed {
		t.Errorf("telemetry shed %v != metrics shed %d", shed, over.Shed)
	}
	served := tel.Counter(telemetry.MetricTenantQueries, "tenant", "interactive").Value()
	if float64(m.Tenants["interactive"].Served) != served {
		t.Errorf("telemetry served %v != metrics served %d", served, m.Tenants["interactive"].Served)
	}
}

// slackScheme picks by slack alone — the slow accurate model when the slack
// covers it, else the fast one — and always asks for the whole queue, so
// the decision depends on nothing but the slack the engine hands it.
func slackScheme(ps profile.Set, slow, fast int) Scheme {
	return Scheme{Select: func(_, _ float64, n int, slack float64) (string, int) {
		if p := ps.Profiles[slow]; slack >= p.BatchLatency(min(n, p.MaxBatch())) {
			return p.Name, n
		}
		return ps.Profiles[fast].Name, n
	}}
}

// TestDecisionSlackHonorsTightestTenantDeadline is the head-of-line
// inversion case the frontend guards against, run through the simulator: a
// short-SLO query queued behind a lax head must drive the decision, or it
// waits out a slow accurate-model batch it can never survive. A stream with
// one SLO decides exactly as the head's deadline says.
func TestDecisionSlackHonorsTightestTenantDeadline(t *testing.T) {
	ps := imageProfiles()
	slow, _ := indexOf(ps, "efficientnet_v2_s")
	fast := 0
	slowLat, fastLat := ps.Profiles[slow].BatchLatency(1), ps.Profiles[fast].BatchLatency(2)
	strictSLO, laxSLO := slowLat/2, 10*slowLat
	// Query 0 occupies the worker on the slow model; 1 (lax) and 2 (strict)
	// queue behind it and are decided together when it completes.
	qs := []Query{
		{ID: 0, Arrival: 0, Tenant: "lax"},
		{ID: 1, Arrival: slowLat - 2*fastLat, Tenant: "lax"},
		{ID: 2, Arrival: slowLat - fastLat, Tenant: "strict"},
	}
	run := func(slos map[string]float64) Metrics {
		e := NewEngine(ps, laxSLO, 1, Deterministic{}, slackScheme(ps, slow, fast), 1)
		e.TenantSLOs = slos
		e.RecordDecisions = true
		return e.RunQueries(qs)
	}

	m := run(map[string]float64{"lax": laxSLO, "strict": strictSLO})
	if len(m.DecisionLog) != 2 || m.DecisionLog[1].Batch != 2 {
		t.Fatalf("decisions %+v, want the two queued queries decided together", m.DecisionLog)
	}
	d := m.DecisionLog[1]
	if want := qs[2].Arrival + strictSLO - d.Time; math.Abs(d.Slack-want) > 1e-12 {
		t.Errorf("slack %v, want the strict query's %v (the lax head's is %v)", d.Slack, want, qs[1].Arrival+laxSLO-d.Time)
	}
	if d.Model != ps.Profiles[fast].Name {
		t.Errorf("decided %s behind a lax head; the strict query cannot survive it", d.Model)
	}
	if st := m.Tenants["strict"]; st == nil || st.Served != 1 || st.Violations != 0 {
		t.Errorf("strict tenant %+v, want its query served inside its SLO", st)
	}

	// One SLO for everyone: the head's deadline is the tightest, as before.
	m = run(nil)
	d = m.DecisionLog[1]
	if want := qs[1].Arrival + laxSLO - d.Time; math.Abs(d.Slack-want) > 1e-12 || d.Model != ps.Profiles[slow].Name {
		t.Errorf("single-SLO stream decided %s at slack %v, want %s at the head's %v", d.Model, d.Slack, ps.Profiles[slow].Name, want)
	}
}
