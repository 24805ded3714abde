package monitor

import (
	"math"
	"sync"
	"testing"

	"ramsis/internal/trace"
)

func TestMovingAverageSteadyLoad(t *testing.T) {
	m := NewMovingAverage(0.5)
	// 100 QPS: one arrival every 10 ms.
	for i := 0; i < 500; i++ {
		m.Observe(float64(i) * 0.01)
	}
	got := m.Load(5.0)
	if math.Abs(got-100) > 4 {
		t.Errorf("Load = %v, want ~100", got)
	}
}

func TestMovingAverageWindowEviction(t *testing.T) {
	m := NewMovingAverage(0.5)
	for i := 0; i < 100; i++ {
		m.Observe(float64(i) * 0.001) // burst in first 100 ms
	}
	if got := m.Load(0.1); got != 200 {
		t.Errorf("Load right after burst = %v, want 200", got)
	}
	if got := m.Load(10); got != 0 {
		t.Errorf("Load long after burst = %v, want 0", got)
	}
}

func TestMovingAverageTracksLoadChange(t *testing.T) {
	m := NewMovingAverage(0.5)
	tm := 0.0
	for i := 0; i < 100; i++ { // 100 QPS phase
		m.Observe(tm)
		tm += 0.01
	}
	for i := 0; i < 1000; i++ { // 1000 QPS phase
		m.Observe(tm)
		tm += 0.001
	}
	got := m.Load(tm)
	if math.Abs(got-1000) > 30 {
		t.Errorf("Load after ramp = %v, want ~1000", got)
	}
}

func TestMovingAverageBoundedMemory(t *testing.T) {
	m := NewMovingAverage(0.5)
	// 200 s at 1000 QPS: only ~500 arrivals are ever in-window, so the
	// ring must stay near that high-water mark, not the 200k total.
	for i := 0; i < 200000; i++ {
		m.Observe(float64(i) * 0.001)
	}
	if got := m.Load(200.0); math.Abs(got-1000) > 20 {
		t.Errorf("Load after long run = %v, want ~1000", got)
	}
	if len(m.buf) > 2048 {
		t.Errorf("ring grew to %d entries for a ~500-arrival window", len(m.buf))
	}
}

func TestMovingAverageRingWrap(t *testing.T) {
	m := NewMovingAverage(0.5)
	// Alternate bursts and idle gaps so head repeatedly laps the ring.
	tm := 0.0
	for round := 0; round < 50; round++ {
		for i := 0; i < 37; i++ { // co-prime with the ring sizes
			m.Observe(tm)
			tm += 0.001
		}
		tm += 1.0 // idle past the window: everything evicts
		if got := m.Load(tm); got != 0 {
			t.Fatalf("round %d: load after idle = %v, want 0", round, got)
		}
	}
	// One more burst must be fully counted.
	for i := 0; i < 37; i++ {
		m.Observe(tm)
		tm += 0.001
	}
	if got := m.Load(tm); got != 37/0.5 {
		t.Errorf("load after wrap = %v, want %v", got, 37/0.5)
	}
}

// BenchmarkMovingAverageObserve proves Observe is O(1) amortized with zero
// steady-state allocations: the ring reaches its high-water capacity early
// and is reused forever after.
func BenchmarkMovingAverageObserve(b *testing.B) {
	m := NewMovingAverage(0.5)
	// Pre-warm to steady state at 1000 QPS.
	for i := 0; i < 2048; i++ {
		m.Observe(float64(i) * 0.001)
	}
	b.ReportAllocs()
	b.ResetTimer()
	t := 2.048
	for i := 0; i < b.N; i++ {
		m.Observe(t)
		t += 0.001
	}
}

func TestMovingAverageDefaultWindow(t *testing.T) {
	m := NewMovingAverage(0)
	if m.window != 0.5 {
		t.Errorf("default window = %v, want 0.5 (the paper's 500 ms)", m.window)
	}
}

// TestLockedConcurrentObserveAndLoad: N goroutines observe and read one
// Locked moving average at once (the live frontend's handlers and worker
// loops); every arrival is counted, and no reader sees the count go down.
// Every arrival is at one instant, so the non-decreasing-time contract holds
// whatever the interleaving. Run it under -race (make race).
func TestLockedConcurrentObserveAndLoad(t *testing.T) {
	const goroutines, perG, at = 8, 2000, 1.0
	l := NewLocked(NewMovingAverage(0.5))
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			last := 0.0
			for i := 0; i < perG; i++ {
				l.Observe(at)
				got := l.Load(at)
				if got < last+2 { // this goroutine's own arrival adds 1/0.5
					t.Errorf("load %v after %v: an observed arrival was lost", got, last)
					return
				}
				last = got
			}
		}()
	}
	wg.Wait()
	if got, want := l.Load(at), goroutines*perG/0.5; got != want {
		t.Errorf("final load %v, want %v", got, want)
	}
}

func TestOracle(t *testing.T) {
	o := Oracle{Trace: trace.Constant(1234, 30)}
	o.Observe(5) // no-op
	if got := o.Load(15); got != 1234 {
		t.Errorf("oracle load = %v, want 1234", got)
	}
	tw := Oracle{Trace: trace.Twitter()}
	if got := tw.Load(0); got != trace.Twitter().QPS[0] {
		t.Errorf("oracle twitter load = %v", got)
	}
}
