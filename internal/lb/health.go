package lb

import (
	"sync"
	"time"

	"ramsis/internal/telemetry"
)

// HealthConfig tunes a HealthTracker.
type HealthConfig struct {
	// Interval is the wall-clock period between probe rounds (default
	// 500 ms). Serving layers that compress modeled time divide their
	// modeled probe period by TimeScale before building the tracker so
	// detection latency compresses with the rest of the run.
	Interval time.Duration
	// Telemetry, when set, records health-mark flips as
	// ramsis_health_transitions_total{to="healthy"|"unhealthy"} counters —
	// the time series that makes failover behaviour debuggable after the
	// fact.
	Telemetry *telemetry.Registry
}

// failThreshold is the number of consecutive failures — probe or
// dispatch-reported — after which a worker is marked unhealthy.
const failThreshold = 2

// HealthTracker probes each worker on a fixed interval through the
// caller's probe function and maintains a healthy/unhealthy mark per
// worker: failThreshold consecutive failures mark a worker unhealthy, and
// a single successful probe re-admits it. Dispatch paths feed their own
// observations in via ReportFailure/ReportSuccess so detection does not
// have to wait for the next probe round.
//
// All workers start healthy: a tracker that has not probed yet must not
// block traffic.
type HealthTracker struct {
	interval time.Duration
	// probe checks worker w once and reports whether it is healthy; the
	// tracker calls it from w's own probe loop, never concurrently for one
	// worker, and it must return within about one Interval.
	probe func(w int) bool

	mu      sync.Mutex
	fails   []int
	healthy []bool

	// transition counters; nil when no registry was configured.
	toUnhealthy *telemetry.Counter
	toHealthy   *telemetry.Counter

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// NewHealthTracker builds a tracker over n workers, each checked by probe
// (not yet probing; call Start).
func NewHealthTracker(n int, probe func(w int) bool, cfg HealthConfig) *HealthTracker {
	if cfg.Interval <= 0 {
		cfg.Interval = 500 * time.Millisecond
	}
	t := &HealthTracker{
		interval: cfg.Interval,
		probe:    probe,
		fails:    make([]int, n),
		healthy:  make([]bool, n),
		stop:     make(chan struct{}),
	}
	for i := range t.healthy {
		t.healthy[i] = true
	}
	if cfg.Telemetry != nil {
		t.toUnhealthy = cfg.Telemetry.Counter(telemetry.MetricHealthTransitions, "to", "unhealthy")
		t.toHealthy = cfg.Telemetry.Counter(telemetry.MetricHealthTransitions, "to", "healthy")
	}
	return t
}

// Start launches one probe loop per worker.
func (t *HealthTracker) Start() {
	for w := range t.healthy {
		t.wg.Add(1)
		go t.probeLoop(w)
	}
}

// Stop halts the probe loops and waits for them to exit; repeating it does
// nothing.
func (t *HealthTracker) Stop() {
	t.stopOnce.Do(func() { close(t.stop) })
	t.wg.Wait()
}

func (t *HealthTracker) probeLoop(w int) {
	defer t.wg.Done()
	ticker := time.NewTicker(t.interval)
	defer ticker.Stop()
	for {
		select {
		case <-t.stop:
			return
		case <-ticker.C:
			if t.probe(w) {
				t.ReportSuccess(w)
			} else {
				t.ReportFailure(w)
			}
		}
	}
}

// ReportFailure records one failed interaction with worker w (probe
// failure or dispatch error); failThreshold consecutive failures mark the
// worker unhealthy.
func (t *HealthTracker) ReportFailure(w int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.fails[w]++
	if t.fails[w] >= failThreshold {
		if t.healthy[w] && t.toUnhealthy != nil {
			t.toUnhealthy.Inc()
		}
		t.healthy[w] = false
	}
}

// ReportSuccess records one successful interaction with worker w,
// re-admitting it immediately if it was marked unhealthy.
func (t *HealthTracker) ReportSuccess(w int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.fails[w] = 0
	if !t.healthy[w] && t.toHealthy != nil {
		t.toHealthy.Inc()
	}
	t.healthy[w] = true
}

// Healthy returns a snapshot of the per-worker health marks, one per
// worker the tracker was built over, in worker order.
func (t *HealthTracker) Healthy() []bool {
	return t.HealthyInto(nil)
}

// HealthyInto appends the per-worker health marks to dst (typically a
// recycled scratch slice), so hot routing paths can snapshot health
// without allocating.
func (t *HealthTracker) HealthyInto(dst []bool) []bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append(dst, t.healthy...)
}

// IsHealthy reports worker w's current mark.
func (t *HealthTracker) IsHealthy(w int) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.healthy[w]
}
