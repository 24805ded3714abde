package sim

import (
	"math"
	"math/rand"
	"testing"

	"ramsis/internal/profile"
	"ramsis/internal/telemetry"
	"ramsis/internal/trace"
)

func imageProfiles() profile.Set { return profile.ImageSet() }

func TestFixedModelSingleQuery(t *testing.T) {
	ps := imageProfiles()
	fast := 0 // shufflenet_v2_x0_5 is first
	e := NewEngine(ps, 0.150, 1, Deterministic{}, &FixedModel{Model: fast, MaxBatch: 8}, 1)
	m := e.Run([]float64{0})
	if m.Served != 1 || m.Violations != 0 {
		t.Fatalf("metrics = %+v, want 1 served 0 violations", m)
	}
	want := ps.Profiles[fast].Accuracy
	if math.Abs(m.AccuracyPerSatisfiedQuery()-want) > 1e-12 {
		t.Errorf("accuracy = %v, want %v", m.AccuracyPerSatisfiedQuery(), want)
	}
	if m.Decisions != 1 {
		t.Errorf("decisions = %d, want 1", m.Decisions)
	}
}

func TestDeadlineMissDetected(t *testing.T) {
	ps := imageProfiles()
	slow, _ := indexOf(ps, "efficientnet_v2_s")
	// SLO below the model's batch-1 latency: every query misses.
	e := NewEngine(ps, 0.050, 1, Deterministic{}, &FixedModel{Model: slow, MaxBatch: 1}, 1)
	m := e.Run([]float64{0, 0.001, 0.002})
	if m.Served != 3 || m.Violations != 3 {
		t.Fatalf("metrics = %+v, want 3 served 3 violations", m)
	}
	if m.ViolationRate() != 1 {
		t.Errorf("violation rate = %v, want 1", m.ViolationRate())
	}
	if m.AccuracyPerSatisfiedQuery() != 0 {
		t.Errorf("accuracy with no satisfied queries = %v, want 0", m.AccuracyPerSatisfiedQuery())
	}
}

func TestQueueingDelayCountsAgainstSLO(t *testing.T) {
	ps := imageProfiles()
	fast := 0
	l1 := ps.Profiles[fast].BatchLatency(1)
	// Two simultaneous arrivals, one worker, batch cap 1: second query waits
	// a full service time. SLO between 1x and 2x latency => one violation.
	slo := 1.5 * l1
	e := NewEngine(ps, slo, 1, Deterministic{}, &FixedModel{Model: fast, MaxBatch: 1}, 1)
	m := e.Run([]float64{0, 0})
	if m.Served != 2 || m.Violations != 1 {
		t.Fatalf("metrics = %+v, want 2 served 1 violation", m)
	}
}

func TestBatchingServesTogether(t *testing.T) {
	ps := imageProfiles()
	fast := 0
	e := NewEngine(ps, 1.0, 1, Deterministic{}, &FixedModel{Model: fast, MaxBatch: 8}, 1)
	// Occupy the worker, letting 5 queries accumulate, then they batch.
	m := e.Run([]float64{0, 0.001, 0.002, 0.003, 0.004, 0.005})
	if m.Decisions != 2 {
		t.Fatalf("decisions = %d, want 2 (1 then batch of 5)", m.Decisions)
	}
	if m.Served != 6 || m.Violations != 0 {
		t.Fatalf("metrics = %+v", m)
	}
}

func TestConservationAllQueriesAccounted(t *testing.T) {
	ps := imageProfiles()
	arr := trace.PoissonArrivals(trace.Constant(300, 10), 3)
	e := NewEngine(ps, 0.150, 8, Deterministic{}, &FixedModel{Model: 0, MaxBatch: 16}, 1)
	m := e.Run(arr)
	if m.Served+m.Unserved != len(arr) {
		t.Fatalf("served %d + unserved %d != arrivals %d", m.Served, m.Unserved, len(arr))
	}
	if m.Unserved != 0 {
		t.Errorf("eager scheduler left %d queries unserved", m.Unserved)
	}
	total := 0
	for _, c := range m.ModelCounts {
		total += c
	}
	if total != m.Served {
		t.Errorf("model counts total %d != served %d", total, m.Served)
	}
}

func TestDeterministicReplay(t *testing.T) {
	ps := imageProfiles()
	arr := trace.PoissonArrivals(trace.Constant(500, 5), 9)
	run := func() Metrics {
		e := NewEngine(ps, 0.150, 4, Stochastic{StdDev: 0.010}, &FixedModel{Model: 0, MaxBatch: 8}, 42)
		return e.Run(arr)
	}
	a, b := run(), run()
	if a.Served != b.Served || a.Violations != b.Violations || a.SatAccSum != b.SatAccSum {
		t.Error("simulation not deterministic for fixed seed")
	}
}

func TestStochasticLatencyDistribution(t *testing.T) {
	ps := imageProfiles()
	p := ps.Profiles[0]
	s := Stochastic{StdDev: 0.010}
	rng := rand.New(rand.NewSource(5))
	const n = 20000
	var below, sum float64
	for i := 0; i < n; i++ {
		v := s.Latency(p, 1, rng)
		sum += v
		if v <= p.BatchLatency(1) {
			below++
		}
		if v < p.BatchLatency(1)*0.25-1e-12 {
			t.Fatalf("sampled latency %v under floor", v)
		}
	}
	// The profile is the p95: ~95% of samples below it.
	frac := below / n
	if frac < 0.93 || frac > 0.97 {
		t.Errorf("fraction below p95 = %v, want ~0.95", frac)
	}
	mean := sum / n
	want := p.BatchLatency(1) - 1.645*s.EffectiveStdDev(p.BatchLatency(1))
	if math.Abs(mean-want) > 0.001 {
		t.Errorf("mean latency %v, want ~%v", mean, want)
	}
}

func TestCollectLatencies(t *testing.T) {
	ps := imageProfiles()
	e := NewEngine(ps, 0.5, 2, Deterministic{}, &FixedModel{Model: 0, MaxBatch: 4}, 1)
	e.CollectLatencies = true
	m := e.Run([]float64{0, 0.01, 0.02})
	if len(m.Latencies) != 3 {
		t.Fatalf("collected %d latencies, want 3", len(m.Latencies))
	}
	for _, l := range m.Latencies {
		if l < ps.Profiles[0].BatchLatency(1)-1e-9 {
			t.Errorf("response latency %v below service latency", l)
		}
	}
}

func TestEngineRejectsZeroWorkers(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewEngine(0 workers) did not panic")
		}
	}()
	NewEngine(imageProfiles(), 0.1, 0, Deterministic{}, &FixedModel{}, 1)
}

func indexOf(s profile.Set, name string) (int, bool) {
	for i, p := range s.Profiles {
		if p.Name == name {
			return i, true
		}
	}
	return 0, false
}

func TestDropExpiredQueries(t *testing.T) {
	ps := imageProfiles()
	slow, _ := indexOf(ps, "efficientnet_v2_s")
	// One worker, slow model, tight SLO: a burst overwhelms it. With
	// DropExpired, already-late queries are discarded instead of served.
	arr := make([]float64, 20)
	for i := range arr {
		arr[i] = float64(i) * 0.001
	}
	run := func(drop bool) Metrics {
		e := NewEngine(ps, 0.300, 1, Deterministic{}, &FixedModel{Model: slow, MaxBatch: 1}, 1)
		e.DropExpired = drop
		return e.Run(arr)
	}
	noDrop := run(false)
	withDrop := run(true)
	if noDrop.Dropped != 0 {
		t.Fatalf("drops recorded with DropExpired off: %d", noDrop.Dropped)
	}
	if withDrop.Dropped == 0 {
		t.Fatal("no drops under overload with DropExpired on")
	}
	if withDrop.Served+withDrop.Dropped != len(arr) {
		t.Fatalf("accounting: served %d + dropped %d != %d", withDrop.Served, withDrop.Dropped, len(arr))
	}
	// Dropped queries count against the violation rate.
	if withDrop.ViolationRate() == 0 {
		t.Error("drops not reflected in the violation rate")
	}
	// Serving late (no drop) serves everything; dropping serves fewer.
	if noDrop.Served != len(arr) || withDrop.Served >= noDrop.Served {
		t.Errorf("served: noDrop %d, withDrop %d", noDrop.Served, withDrop.Served)
	}
}

func TestDropExpiredLeavesTimelyQueries(t *testing.T) {
	ps := imageProfiles()
	e := NewEngine(ps, 0.500, 2, Deterministic{}, &FixedModel{Model: 0, MaxBatch: 4}, 1)
	e.DropExpired = true
	m := e.Run([]float64{0, 0.01, 0.02, 0.03})
	if m.Dropped != 0 || m.Served != 4 || m.Violations != 0 {
		t.Errorf("timely workload affected by DropExpired: %+v", m)
	}
}

func TestMetricsLatencyPercentiles(t *testing.T) {
	ps := imageProfiles()
	// Exact path: latencies collected.
	e := NewEngine(ps, 0.5, 2, Deterministic{}, &FixedModel{Model: 0, MaxBatch: 4}, 1)
	e.CollectLatencies = true
	m := e.Run([]float64{0, 0.01, 0.02, 0.03, 0.04})
	if m.LatencyP50 <= 0 || m.LatencyP95 < m.LatencyP50 || m.LatencyP99 < m.LatencyP95 {
		t.Fatalf("percentiles not monotone: p50=%v p95=%v p99=%v", m.LatencyP50, m.LatencyP95, m.LatencyP99)
	}
	// Histogram path: same run without collection must stay close.
	e2 := NewEngine(ps, 0.5, 2, Deterministic{}, &FixedModel{Model: 0, MaxBatch: 4}, 1)
	m2 := e2.Run([]float64{0, 0.01, 0.02, 0.03, 0.04})
	if m2.LatencyP50 <= 0 {
		t.Fatal("histogram-backed p50 missing")
	}
	if rel := math.Abs(m2.LatencyP95-m.LatencyP95) / m.LatencyP95; rel > 0.5 {
		t.Errorf("histogram p95 %v far from exact %v", m2.LatencyP95, m.LatencyP95)
	}
}

func TestEngineTelemetryMatchesMetrics(t *testing.T) {
	ps := imageProfiles()
	reg := telemetry.NewRegistry()
	e := NewEngine(ps, 0.150, 2, Deterministic{}, &FixedModel{Model: 0, MaxBatch: 4}, 1)
	e.Telemetry = reg
	var arr []float64
	for i := 0; i < 40; i++ {
		arr = append(arr, float64(i)*0.005)
	}
	m := e.Run(arr)
	if got := reg.Counter(telemetry.MetricQueries).Value(); int(got) != m.Served {
		t.Errorf("registry served %v, metrics %d", got, m.Served)
	}
	if got := reg.Counter(telemetry.MetricViolations).Value(); int(got) != m.Violations {
		t.Errorf("registry violations %v, metrics %d", got, m.Violations)
	}
	if got := reg.Counter(telemetry.MetricDecisions).Value(); int(got) != m.Decisions {
		t.Errorf("registry decisions %v, metrics %d", got, m.Decisions)
	}
	inf := reg.Histogram(telemetry.MetricStageSeconds, "stage", telemetry.StageInference)
	if inf.Count() != uint64(m.Decisions) {
		t.Errorf("inference stage samples %d, want one per decision (%d)", inf.Count(), m.Decisions)
	}
	bw := reg.Histogram(telemetry.MetricStageSeconds, "stage", telemetry.StageBatchWait)
	if bw.Count() != uint64(m.Served) {
		t.Errorf("batch_wait stage samples %d, want one per query (%d)", bw.Count(), m.Served)
	}
}

// TestQueryFinishingExactlyOnDeadlineMeetsIt pins the one SLO boundary both
// drivers judge by: latency == SLO is met, the first representable miss is
// beyond the 1e-12 tolerance that absorbs clock rounding.
func TestQueryFinishingExactlyOnDeadlineMeetsIt(t *testing.T) {
	ps := imageProfiles()
	lat := ps.Profiles[0].BatchLatency(1)
	for _, tc := range []struct {
		slo        float64
		violations int
	}{{lat, 0}, {lat - 1e-9, 1}} {
		e := NewEngine(ps, tc.slo, 1, Deterministic{}, &FixedModel{Model: 0, MaxBatch: 1}, 1)
		if m := e.Run([]float64{0}); m.Served != 1 || m.Violations != tc.violations {
			t.Errorf("SLO %v, latency %v: %+v, want %d violations", tc.slo, lat, m.Tally, tc.violations)
		}
	}
}

// badModel names a model no worker loads.
func badModel(float64, float64, int, float64) (string, int) { return "no-such-model", 4 }

// TestUnknownModelFallsBackAndIsCounted: a mis-wired scheduler never drops
// queries or panics — every decision runs on the fallback model, and both
// the Metrics and the registry say so, so an experiment can fail on it.
func TestUnknownModelFallsBackAndIsCounted(t *testing.T) {
	ps := imageProfiles()
	reg := telemetry.NewRegistry()
	e := NewEngine(ps, 0.150, 1, Deterministic{}, Scheme{Select: badModel}, 1)
	e.Telemetry = reg
	m := e.Run([]float64{0, 0.001, 0.002})
	if m.Served != 3 || m.SelectFallbacks != m.Decisions || m.Decisions == 0 {
		t.Fatalf("served %d, %d fallbacks over %d decisions; want all served, every decision a fallback",
			m.Served, m.SelectFallbacks, m.Decisions)
	}
	if m.ModelCounts[ps.Profiles[0].Name] != 3 {
		t.Errorf("model counts %v, want everything on the fallback %s", m.ModelCounts, ps.Profiles[0].Name)
	}
	if got := reg.Counter(telemetry.MetricSelectFallbacks).Value(); int(got) != m.SelectFallbacks {
		t.Errorf("registry fallbacks %v, metrics %d", got, m.SelectFallbacks)
	}
}
