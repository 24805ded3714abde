package lb

import (
	"sync/atomic"
	"testing"
	"time"
)

// waitFor polls cond up to a bound; probe loops run on wall-clock tickers
// so tests poll rather than sleep a fixed worst case.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestHealthTrackerMarksAndReadmits(t *testing.T) {
	var down atomic.Bool
	probe := func(int) bool { return !down.Load() }
	tr := NewHealthTracker(1, probe, HealthConfig{Interval: 10 * time.Millisecond})
	tr.Start()
	defer tr.Stop()

	if !tr.IsHealthy(0) {
		t.Fatal("worker should start healthy")
	}
	down.Store(true)
	waitFor(t, "unhealthy mark", func() bool { return !tr.IsHealthy(0) })
	down.Store(false)
	waitFor(t, "re-admission", func() bool { return tr.IsHealthy(0) })
}

func TestHealthTrackerNeedsConsecutiveFailures(t *testing.T) {
	tr := NewHealthTracker(1, func(int) bool { return true }, HealthConfig{})
	tr.ReportFailure(0)
	if !tr.IsHealthy(0) {
		t.Fatal("marked unhealthy below threshold")
	}
	// A success in between resets the consecutive count.
	tr.ReportSuccess(0)
	tr.ReportFailure(0)
	if !tr.IsHealthy(0) {
		t.Fatal("non-consecutive failures should not mark unhealthy")
	}
	tr.ReportFailure(0)
	if tr.IsHealthy(0) {
		t.Fatal("threshold consecutive failures should mark unhealthy")
	}
}

// TestHealthTrackerDetectsDeadServer probes a worker that answers and then
// dies: its probe fails from then on, as a refused connection does.
func TestHealthTrackerDetectsDeadServer(t *testing.T) {
	var dead atomic.Bool
	probe := func(int) bool { return !dead.Load() }
	tr := NewHealthTracker(1, probe, HealthConfig{Interval: 10 * time.Millisecond})
	tr.Start()
	defer tr.Stop()
	waitFor(t, "initial healthy probe", func() bool { return tr.IsHealthy(0) })
	dead.Store(true) // every probe fails from here on
	waitFor(t, "dead-server detection", func() bool { return !tr.IsHealthy(0) })
	if h := tr.Healthy(); len(h) != 1 || h[0] {
		t.Errorf("Healthy() = %v", h)
	}
}

// TestHealthTrackerProbesEachWorker pins the probe's argument: each
// worker's loop probes that worker, so one failing worker is marked alone.
func TestHealthTrackerProbesEachWorker(t *testing.T) {
	var probed [3]atomic.Int32
	probe := func(w int) bool {
		probed[w].Add(1)
		return w != 1
	}
	tr := NewHealthTracker(3, probe, HealthConfig{Interval: 10 * time.Millisecond})
	tr.Start()
	defer tr.Stop()
	waitFor(t, "worker 1 marked", func() bool { return !tr.IsHealthy(1) })
	if h := tr.Healthy(); !h[0] || h[1] || !h[2] {
		t.Errorf("Healthy() = %v, want [true false true]", h)
	}
	for w := range probed {
		if probed[w].Load() == 0 {
			t.Errorf("worker %d never probed", w)
		}
	}
}

// TestHealthTrackerStopIsRepeatable stops a probing tracker twice: the
// second Stop must return without closing the stop channel again.
func TestHealthTrackerStopIsRepeatable(t *testing.T) {
	tr := NewHealthTracker(1, func(int) bool { return true }, HealthConfig{Interval: 10 * time.Millisecond})
	tr.Start()
	tr.Stop()
	tr.Stop()
}
