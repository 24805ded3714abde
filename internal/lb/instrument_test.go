package lb

import (
	"testing"

	"ramsis/internal/telemetry"
)

func TestInstrumentedBalancerRecordsPicks(t *testing.T) {
	reg := telemetry.NewRegistry()
	b := Instrumented(NewJoinShortestQueue(), reg)
	if b.Name() != "jsq" {
		t.Errorf("wrapped name = %s", b.Name())
	}
	lens := []int{3, 1, 2}
	for i := 0; i < 10; i++ {
		if w := b.Pick(lens, nil); w != 1 {
			t.Fatalf("pick = %d, want 1", w)
		}
	}
	h := reg.Histogram(telemetry.MetricPickSeconds, "balancer", "jsq")
	if h.Count() != 10 {
		t.Errorf("pick histogram count = %d, want 10", h.Count())
	}
}

func TestInstrumentedNilRegistryPassesThrough(t *testing.T) {
	b := NewRoundRobin()
	if got := Instrumented(b, nil); got != Balancer(b) {
		t.Error("nil registry should return the balancer unwrapped")
	}
}

func TestHealthTrackerTransitionCounters(t *testing.T) {
	reg := telemetry.NewRegistry()
	tr := NewHealthTracker([]string{"http://a", "http://b"}, HealthConfig{Telemetry: reg})
	down := reg.Counter(telemetry.MetricHealthTransitions, "to", "unhealthy")
	up := reg.Counter(telemetry.MetricHealthTransitions, "to", "healthy")

	tr.ReportFailure(0)
	if down.Value() != 0 {
		t.Fatal("below-threshold failure counted as transition")
	}
	tr.ReportFailure(0)
	if down.Value() != 1 {
		t.Fatalf("unhealthy transitions = %v, want 1", down.Value())
	}
	// Further failures while already unhealthy are not transitions.
	tr.ReportFailure(0)
	if down.Value() != 1 {
		t.Fatalf("repeated failure double-counted: %v", down.Value())
	}
	// Successes while healthy are not transitions either.
	tr.ReportSuccess(1)
	if up.Value() != 0 {
		t.Fatalf("healthy worker success counted as transition: %v", up.Value())
	}
	tr.ReportSuccess(0)
	if up.Value() != 1 {
		t.Fatalf("healthy transitions = %v, want 1", up.Value())
	}
}
