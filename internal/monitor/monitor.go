// Package monitor implements query-load monitors (§3 "load monitor"): RAMSIS
// and the baselines both anticipate query load from the same monitor. The
// paper's implementation tracks load as a moving average over a 500 ms
// window [38, 57]; constant-load experiments (§7.2) assume a perfect
// predictor, modeled here as an oracle.
package monitor

import (
	"sync"

	"ramsis/internal/trace"
)

// Monitor estimates the current query load (QPS) at the central queue.
type Monitor interface {
	// Observe records a query arrival at time t (seconds). Arrival times
	// must be non-decreasing.
	Observe(t float64)
	// Load returns the anticipated query load in QPS at time t.
	Load(t float64) float64
}

// MovingAverage tracks load as arrivals over a trailing window. Arrivals
// live in a ring buffer sized to the window's high-water mark, so memory is
// bounded by the peak in-window count and Observe is O(1) amortized: the
// old slice-backed version appended forever and only compacted its dead
// prefix occasionally, holding every arrival ever seen between compactions.
type MovingAverage struct {
	window float64
	buf    []float64 // ring storage, len(buf) is the capacity: 16·2ⁿ slots
	head   int       // index of the oldest retained arrival
	n      int       // retained arrivals
}

// NewMovingAverage returns a monitor with the given window in seconds.
// The paper uses 0.5 s.
func NewMovingAverage(window float64) *MovingAverage {
	if window <= 0 {
		window = 0.5
	}
	return &MovingAverage{window: window}
}

// Observe records an arrival.
func (m *MovingAverage) Observe(t float64) {
	m.evict(t)
	if m.n == len(m.buf) {
		m.grow()
	}
	m.buf[(m.head+m.n)&(len(m.buf)-1)] = t
	m.n++
}

// Load returns the windowed arrival rate at time t.
func (m *MovingAverage) Load(t float64) float64 {
	m.evict(t)
	return float64(m.n) / m.window
}

// evict drops arrivals older than the window. Each arrival is evicted at
// most once, so the cost amortizes against its own Observe. The ring's
// length is a power of two, so a mask wraps the index.
func (m *MovingAverage) evict(t float64) {
	lo := t - m.window
	mask := len(m.buf) - 1
	for m.n > 0 && m.buf[m.head] < lo {
		m.head = (m.head + 1) & mask
		m.n--
	}
}

// grow doubles the ring (from 16), unwrapping the live region to the front.
func (m *MovingAverage) grow() {
	c := len(m.buf) * 2
	if c == 0 {
		c = 16
	}
	next := make([]float64, c)
	for i := 0; i < m.n; i++ {
		next[i] = m.buf[(m.head+i)&(len(m.buf)-1)]
	}
	m.buf = next
	m.head = 0
}

// Locked serializes a monitor for concurrent use: the live frontend
// observes arrivals from every request handler and reads the load from
// every worker loop and metrics scrape.
type Locked struct {
	mu sync.Mutex
	m  Monitor
}

// NewLocked guards m with a mutex.
func NewLocked(m Monitor) *Locked { return &Locked{m: m} }

// Observe records an arrival under the lock.
func (l *Locked) Observe(t float64) {
	l.mu.Lock()
	l.m.Observe(t)
	l.mu.Unlock()
}

// Load reads the load under the lock.
func (l *Locked) Load(t float64) float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.m.Load(t)
}

// Oracle returns the true trace load, the perfect predictor of §7.2.
type Oracle struct {
	Trace trace.Trace
}

// Observe is a no-op: the oracle already knows the trace.
func (Oracle) Observe(float64) {}

// Load returns the trace load at time t.
func (o Oracle) Load(t float64) float64 { return o.Trace.QPSAt(t) }
