package sim

import (
	"bytes"
	"fmt"
	"testing"

	"ramsis/internal/admit"
	"ramsis/internal/core"
	"ramsis/internal/telemetry"
	"ramsis/internal/trace"
)

// TestSimTracingFragments runs a small deterministic workload with the
// observability hooks attached and checks the sim-side contract: one
// fragment per served query with the deterministic "sim-<id>" trace ID,
// batch_wait and inference spans, and an attached select decision with
// both predicted and realized latency populated.
func TestSimTracingFragments(t *testing.T) {
	ps := imageProfiles()
	var jsonl bytes.Buffer
	e := NewEngine(ps, 0.150, 1, Deterministic{}, &FixedModel{Model: 0, MaxBatch: 8}, 1)
	e.Telemetry = telemetry.NewRegistry()
	e.Traces = telemetry.NewTraceBuffer(0)
	e.TraceWriter = telemetry.NewTraceWriter(&jsonl)
	e.Decisions = telemetry.NewDecisionBuffer(0)

	arrivals := []float64{0, 0.001, 0.002, 0.5}
	m := e.Run(arrivals)
	if m.Served != len(arrivals) {
		t.Fatalf("served = %d, want %d", m.Served, len(arrivals))
	}

	frags := e.Traces.Snapshot()
	if len(frags) != len(arrivals) {
		t.Fatalf("ringed %d fragments, want one per served query", len(frags))
	}
	seen := map[string]bool{}
	for _, qt := range frags {
		if want := simTraceID(qt.ID); qt.TraceID != want {
			t.Errorf("query %d trace ID %q, want deterministic %q", qt.ID, qt.TraceID, want)
		}
		seen[qt.TraceID] = true
		if qt.Process != "sim" {
			t.Errorf("fragment process %q, want sim", qt.Process)
		}
		if qt.Model == "" || qt.Batch == 0 {
			t.Errorf("fragment missing dispatch fields: %+v", qt)
		}
		stages := map[string]bool{}
		for _, sp := range qt.Spans {
			stages[sp.Stage] = true
		}
		if !stages[telemetry.StageBatchWait] || !stages[telemetry.StageInference] {
			t.Errorf("fragment spans %v, want batch_wait and inference", stages)
		}
		if qt.Decision == nil {
			t.Fatalf("fragment %d has no attached decision", qt.ID)
		}
		if qt.Decision.Kind != telemetry.DecisionSelect || qt.Decision.Model == "" {
			t.Errorf("decision = %+v, want a select with a model", qt.Decision)
		}
		if qt.Decision.PredictedSec <= 0 || qt.Decision.RealizedSec <= 0 {
			t.Errorf("decision latencies predicted=%v realized=%v, want both populated",
				qt.Decision.PredictedSec, qt.Decision.RealizedSec)
		}
	}
	if len(seen) != len(arrivals) {
		t.Errorf("%d distinct trace IDs, want %d", len(seen), len(arrivals))
	}

	// The JSONL stream carries the same fragments.
	fromFile, err := telemetry.ReadTraces(&jsonl)
	if err != nil {
		t.Fatal(err)
	}
	if len(fromFile) != len(arrivals) {
		t.Errorf("JSONL stream has %d fragments, want %d", len(fromFile), len(arrivals))
	}

	// Select decisions also land in the shared decision ring.
	selects := 0
	for _, d := range e.Decisions.Snapshot() {
		if d.Kind == telemetry.DecisionSelect {
			selects++
			if d.TraceID == "" {
				t.Errorf("select decision missing trace ID: %+v", d)
			}
		}
	}
	if selects == 0 {
		t.Error("decision ring has no select decisions")
	}

	// Every query met its deadline, so the default tenant's SLO tracker
	// reads full attainment and zero burn.
	tr := e.SLOTracker("default")
	if tr == nil {
		t.Fatal("engine has no SLO tracker for the default tenant")
	}
	now := tr.LastNow()
	if att := tr.Attainment(now, 60); att != 1 {
		t.Errorf("attainment = %v, want 1", att)
	}
	if burn := tr.BurnRate(now, 60); burn != 0 {
		t.Errorf("burn rate = %v, want 0", burn)
	}

	// Tracing switches the latency histogram to exemplar observation; the
	// exposition must link buckets to trace IDs.
	var exp bytes.Buffer
	e.Telemetry.WritePrometheus(&exp)
	if !bytes.Contains(exp.Bytes(), []byte(`# {trace_id="sim-`)) {
		t.Error("exposition lacks latency bucket exemplars linking to trace IDs")
	}
}

// TestSimShedTracing forces the admission controller to shed and checks
// the shed path's observability: a shed decision record plus a trace
// fragment marked with the shed stage and error.
func TestSimShedTracing(t *testing.T) {
	ps := imageProfiles()
	e := NewEngine(ps, 0.150, 1, Deterministic{}, &FixedModel{Model: 0, MaxBatch: 8}, 1)
	e.Admit = admit.Cap{Limit: 1, Est: core.NewWaitEstimator(ps, 1)}
	e.Traces = telemetry.NewTraceBuffer(0)
	e.Decisions = telemetry.NewDecisionBuffer(0)

	// A simultaneous burst overruns the cap of one outstanding query.
	m := e.Run([]float64{0, 0, 0, 0})
	if m.Shed == 0 {
		t.Fatal("cap admission shed nothing; fixture no longer overruns")
	}

	shedFrags := 0
	for _, qt := range e.Traces.Snapshot() {
		if qt.Error != "shed" {
			continue
		}
		shedFrags++
		if qt.TraceID != simTraceID(qt.ID) || qt.Process != "sim" {
			t.Errorf("shed fragment missing trace context: %+v", qt)
		}
		if len(qt.Spans) != 1 || qt.Spans[0].Stage != telemetry.StageShed {
			t.Errorf("shed fragment spans = %+v, want single shed span", qt.Spans)
		}
	}
	if shedFrags != m.Shed {
		t.Errorf("%d shed fragments, want one per shed query (%d)", shedFrags, m.Shed)
	}

	kinds := map[string]int{}
	for _, d := range e.Decisions.Snapshot() {
		kinds[d.Kind]++
		if d.Kind == telemetry.DecisionShed && d.Outcome != "shed" {
			t.Errorf("shed decision outcome %q, want shed", d.Outcome)
		}
	}
	if kinds[telemetry.DecisionShed] != m.Shed {
		t.Errorf("%d shed decisions, want %d", kinds[telemetry.DecisionShed], m.Shed)
	}
	if kinds[telemetry.DecisionAdmit] == 0 {
		t.Error("no admit decisions recorded alongside the sheds")
	}
}

// TestSimTracingIsDeterminismNeutral guards the invariant the trace-ID
// derivation exists for: observability must not consume the engine's rng.
// A stochastic latency model draws from the noise stream every dispatch,
// so any hook that also drew from it would shift every subsequent sample
// and diverge the metrics between traced and untraced runs.
func TestSimTracingIsDeterminismNeutral(t *testing.T) {
	run := func(traced bool) Metrics {
		ps := imageProfiles()
		e := NewEngine(ps, 0.150, 2, Stochastic{StdDev: 0.010}, &FixedModel{Model: 0, MaxBatch: 8}, 7)
		e.CollectLatencies = true
		if traced {
			e.Telemetry = telemetry.NewRegistry()
			e.Traces = telemetry.NewTraceBuffer(0)
			e.Decisions = telemetry.NewDecisionBuffer(0)
		}
		return e.Run(trace.PoissonArrivals(trace.Constant(200, 10), 3))
	}
	a, b := run(false), run(true)
	if a.Served != b.Served || a.Violations != b.Violations || a.Shed != b.Shed {
		t.Fatalf("traced run diverged: untraced %+v vs traced %+v", a, b)
	}
	if len(a.Latencies) != len(b.Latencies) {
		t.Fatalf("latency count diverged: %d vs %d", len(a.Latencies), len(b.Latencies))
	}
	for i := range a.Latencies {
		if a.Latencies[i] != b.Latencies[i] {
			t.Fatalf("latency %d diverged: %v vs %v — tracing consumed the rng",
				i, a.Latencies[i], b.Latencies[i])
		}
	}
	if fmt.Sprintf("%.12f", a.SatAccSum) != fmt.Sprintf("%.12f", b.SatAccSum) {
		t.Errorf("satisfied-accuracy sum diverged: %v vs %v", a.SatAccSum, b.SatAccSum)
	}
}
