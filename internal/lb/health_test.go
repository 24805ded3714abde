package lb

import (
	"net/http"
	"net/http/httptest"
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
	srv := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, _ *http.Request) {
		if down.Load() {
			rw.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		rw.WriteHeader(http.StatusOK)
	}))
	defer srv.Close()

	tr := NewHealthTracker([]string{srv.URL}, HealthConfig{Interval: 10 * time.Millisecond})
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
	tr := NewHealthTracker([]string{"http://unused"}, HealthConfig{})
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

func TestHealthTrackerDetectsDeadServer(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, _ *http.Request) {
		rw.WriteHeader(http.StatusOK)
	}))
	url := srv.URL
	tr := NewHealthTracker([]string{url}, HealthConfig{Interval: 10 * time.Millisecond})
	tr.Start()
	defer tr.Stop()
	waitFor(t, "initial healthy probe", func() bool { return tr.IsHealthy(0) })
	srv.Close() // connection refused from here on
	waitFor(t, "dead-server detection", func() bool { return !tr.IsHealthy(0) })
	if h := tr.Healthy(); len(h) != 1 || h[0] {
		t.Errorf("Healthy() = %v", h)
	}
}

// TestHealthTrackerStopIsRepeatable stops a probing tracker twice: the
// second Stop must return without closing the stop channel again.
func TestHealthTrackerStopIsRepeatable(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, _ *http.Request) {
		rw.WriteHeader(http.StatusOK)
	}))
	defer srv.Close()
	tr := NewHealthTracker([]string{srv.URL}, HealthConfig{Interval: 10 * time.Millisecond})
	tr.Start()
	tr.Stop()
	tr.Stop()
}
