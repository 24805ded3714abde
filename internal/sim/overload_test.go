package sim

import (
	"testing"

	"ramsis/internal/admit"
	"ramsis/internal/core"
	"ramsis/internal/monitor"
	"ramsis/internal/profile"
	"ramsis/internal/telemetry"
	"ramsis/internal/trace"
)

// overloadRun drives a RAMSIS policy solved for `solved` QPS with arrivals
// at mult× that rate. The monitor is pinned to the solved rate — the
// mis-provisioned scenario overload protection exists for: the policy
// ladder has nothing better to offer, so without admission control queues
// grow without bound.
func overloadRun(t *testing.T, solved, mult float64, dur int, a admit.Admitter, d *admit.Degrader, reg *telemetry.Registry) Metrics {
	t.Helper()
	const workers, slo = 8, 0.150
	ps := ramsisFixture(t, workers, slo, []float64{solved})
	pinned := trace.Constant(solved, float64(dur))
	offered := trace.Constant(mult*solved, float64(dur))
	e := NewEngine(profile.ImageSet(), slo, workers, Deterministic{}, NewRAMSIS(ps, monitor.Oracle{Trace: pinned}), 1)
	e.Admit = a
	e.Degrade = d
	e.Telemetry = reg
	return e.Run(trace.PoissonArrivals(offered, 7))
}

func TestDeadlineSheddingBeatsNoShedUnderOverload(t *testing.T) {
	// The ISSUE acceptance criterion: at 3.5× the solved rate,
	// deadline-aware shedding must yield strictly higher goodput than
	// serving everything late.
	const solved, mult, dur = 300.0, 3.5, 10
	est := core.NewWaitEstimator(profile.ImageSet(), 8)

	base := overloadRun(t, solved, mult, dur, nil, nil, nil)
	shedding := overloadRun(t, solved, mult, dur, admit.Deadline{SLO: 0.150, Margin: 1, Est: est}, nil, nil)

	if base.Shed != 0 {
		t.Fatalf("baseline shed %d queries with no admitter", base.Shed)
	}
	if shedding.Shed == 0 {
		t.Fatal("deadline admitter shed nothing at 3.5x the solved rate")
	}
	if shedding.Offered() != base.Offered() {
		t.Fatalf("offered mismatch: %d vs %d", shedding.Offered(), base.Offered())
	}
	gb, gs := base.GoodputRate(), shedding.GoodputRate()
	if gs <= gb {
		t.Errorf("deadline shedding goodput %.4f not above no-shed %.4f", gs, gb)
	}
	// Shedding the unmeetable excess must also pull the violation rate of
	// admitted queries far below the baseline's (which approaches 1 as
	// queues grow without bound). It does not reach zero: the estimator is
	// deliberately optimistic, and the pinned policy still serves slower
	// models than the estimate assumes.
	if vs, vb := shedding.ViolationRate(), base.ViolationRate(); vs >= vb/2 {
		t.Errorf("violation rate %.4f not well below baseline %.4f", vs, vb)
	}
	t.Logf("goodput no-shed=%.4f deadline=%.4f shed-rate=%.4f", gb, gs, shedding.ShedRate())
}

func TestCapAdmitterBoundsBacklog(t *testing.T) {
	const solved, mult, dur, limit = 300.0, 3.0, 10, 64
	est := core.NewWaitEstimator(profile.ImageSet(), 8)
	m := overloadRun(t, solved, mult, dur, admit.Cap{Limit: limit, Est: est}, nil, nil)
	if m.Shed == 0 {
		t.Fatal("cap admitter shed nothing at 3x the solved rate")
	}
	// Admission kept the backlog bounded, so the drain after the last
	// arrival is short and nothing is left unserved.
	if m.Unserved != 0 {
		t.Errorf("cap run left %d unserved", m.Unserved)
	}
	if base := overloadRun(t, solved, mult, dur, nil, nil, nil); m.GoodputRate() <= base.GoodputRate() {
		t.Errorf("cap goodput %.4f not above no-shed %.4f", m.GoodputRate(), base.GoodputRate())
	}
}

func TestDegradedModeEscalatesAndClampsUnderOverload(t *testing.T) {
	// Overload confirmed by sustained shed rate must escalate the degrader,
	// and the clamp must substitute faster models on the dispatch path.
	// FixedModel pinned to the slowest model makes the clamp's effect
	// deterministic: every decision at level > 0 is degradable.
	models := profile.ImageSet()
	order := models.SpeedOrder()
	slowest := order[len(order)-1]
	const workers, slo, dur = 4, 0.150, 10.0

	est := core.NewWaitEstimator(models, workers)
	// A short window lets the level walk the full 26-model ladder within
	// the run: one escalation per window under sustained shedding.
	deg := admit.NewDegrader(admit.DegradeConfig{
		MaxLevel:      len(order) - 1,
		Window:        0.2,
		EnterShedRate: 0.05,
	})
	reg := telemetry.NewRegistry()
	e := NewEngine(models, slo, workers, Deterministic{}, &FixedModel{Model: slowest, MaxBatch: 4}, 1)
	e.Admit = admit.Cap{Limit: 32, Est: est}
	e.Degrade = deg
	e.Telemetry = reg
	offered := trace.Constant(800, dur)
	m := e.Run(trace.PoissonArrivals(offered, 3))

	st := deg.Stats()
	if st.Escalations == 0 {
		t.Fatalf("degrader never escalated under overload (shed=%d)", m.Shed)
	}
	if m.DegradedDecisions == 0 {
		t.Fatal("no dispatch decision was clamped despite degraded mode")
	}
	fast := models.Profiles[order[0]].Name
	if m.ModelCounts[fast] == 0 {
		t.Errorf("clamp never reached the fastest model %s; counts %v", fast, m.ModelCounts)
	}
	// The level gauge and transition counters must be visible in the
	// registry — the serve layer exposes the same series on /metrics.
	if v := reg.Counter(telemetry.MetricAdmitDegradeTransitions, "dir", "up").Value(); v == 0 {
		t.Error("ramsis_admit_degrade_transitions_total{dir=up} not incremented")
	}
	if v := reg.Counter(telemetry.MetricAdmitShed, "policy", "cap").Value(); int(v) != m.Shed {
		t.Errorf("shed counter %v disagrees with Metrics.Shed %d", v, m.Shed)
	}
}
