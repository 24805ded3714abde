package serve

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ramsis/internal/core"
	"ramsis/internal/llm"
	"ramsis/internal/sim"
	"ramsis/internal/telemetry"
	"ramsis/internal/trace"
)

// replayClock is the fake clock the differential tests hang off a serve
// component's clock seam. Time only moves when the component sleeps or the
// test jumps an idle component to its next arrival, and every arrival is
// submitted at exactly its own instant: Sleep submits the arrivals that
// fall inside the interval it is holding (the simulator's event order —
// arrivals at or before a completion are routed first), and run submits the
// next one whenever the component has gone idle.
type replayClock struct {
	at     []time.Duration // each arrival's wall offset: its modeled time over TimeScale
	submit func(i int)     // delivers arrival i; called with the clock at at[i]
	// idle reports that nothing is queued or in service. Sleep is only ever
	// called with work in service, so while idle holds, run is the only
	// goroutine that can move the clock.
	idle  func() bool
	epoch time.Time
	now   atomic.Int64 // nanoseconds past epoch

	mu   sync.Mutex // guards next, held across a submit
	next int        // first arrival not yet submitted
}

// wallOffsets converts modeled arrival times to fake-wall offsets.
func wallOffsets(arrivals []float64, timeScale float64) []time.Duration {
	at := make([]time.Duration, len(arrivals))
	for i, a := range arrivals {
		at[i] = time.Duration(a / timeScale * float64(time.Second))
	}
	return at
}

func (c *replayClock) Now() time.Time { return c.epoch.Add(c.Since()) }

// Since returns the fake wall time elapsed since the epoch.
func (c *replayClock) Since() time.Duration { return time.Duration(c.now.Load()) }

// Sleep advances the clock by d, stopping at every arrival on the way.
func (c *replayClock) Sleep(d time.Duration) {
	target := c.Since() + d
	c.submitUntil(target)
	c.now.Store(int64(target))
}

// submitUntil submits every pending arrival due at or before target, each
// with the clock set to its own instant.
func (c *replayClock) submitUntil(target time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for ; c.next < len(c.at) && c.at[c.next] <= target; c.next++ {
		c.now.Store(int64(c.at[c.next]))
		c.submit(c.next)
	}
}

// run feeds the whole trace through the component; it returns once the
// last arrival is submitted.
func (c *replayClock) run() {
	for {
		c.mu.Lock()
		next := c.next
		c.mu.Unlock()
		if next >= len(c.at) {
			return
		}
		if c.idle() {
			c.submitUntil(c.at[next])
		} else {
			runtime.Gosched()
		}
	}
}

// TestLLMWorkerMatchesSimEngine is the sim ↔ serve differential: one worker,
// the same token-arrival stream, the serve worker driven by a fake clock.
// Both run llm.Batcher, so every scheduling outcome must agree — steps per
// model, scheduled prefill/decode tokens, model switches, KV rejections,
// and each query's TTFT and latency to a microsecond of modeled time (the
// fake wall clock is run 1000× slower than modeled time, so its nanosecond
// grain is a picosecond here). It fails when the two loops diverge.
func TestLLMWorkerMatchesSimEngine(t *testing.T) {
	models := llm.BuiltinSet()
	cls := llm.GeneralClass()
	const slo, timeScale = 8.0, 1e-3

	pol, err := core.GenerateLLM(core.LLMConfig{
		Models: models, SLO: slo, Workers: 1, Rate: 4, In: cls.In, Out: cls.Out,
	})
	if err != nil {
		t.Fatal(err)
	}
	polSel, err := sim.NewLLMPolicySelector(pol, models)
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name  string
		sel   sim.ModelSelector
		kvCap int
		load  trace.Trace
	}{
		// A tight cache gates admission and turns the longest requests away.
		{"fixed", sim.FixedSelector(models.Fastest()), 1200, trace.Constant(5, 30)},
		// A burst above the solved rate and the lull after it walk the
		// token-bucket policy down and back up the model ladder.
		{"policy", polSel, 0, trace.Step(2, 9, 10, 20, 40)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			events := trace.TokenArrivals(tc.load, 3, cls.In, cls.Out)

			simReg := telemetry.NewRegistry()
			e := sim.NewLLMEngine(models, slo, 1, tc.sel)
			e.KVCap = tc.kvCap
			e.CollectLatencies = true
			e.Telemetry = simReg
			e.Traces = telemetry.NewTraceBuffer(len(events))
			queries := make([]sim.TokenQuery, len(events))
			for i, ev := range events {
				queries[i] = sim.TokenQuery{ID: i, Arrival: ev.T, Prefill: ev.Prefill, Decode: ev.Decode}
			}
			want := e.Run(queries)

			w := NewLLMWorker(models, slo, timeScale, tc.sel)
			w.KVCap = tc.kvCap
			streams := make([]*genStream, len(events))
			arrivals := make([]float64, len(events))
			for i, ev := range events {
				arrivals[i] = ev.T
			}
			clk := &replayClock{
				at:    wallOffsets(arrivals, timeScale),
				epoch: time.Unix(0, 0),
				submit: func(i int) {
					streams[i] = w.submit(GenRequest{Prefill: events[i].Prefill, Decode: events[i].Decode}, "")
				},
				// The step loop holds w.mu whenever it is not sleeping or
				// parked, and it only parks on an idle batcher: idle under
				// the lock means parked.
				idle: func() bool {
					w.mu.Lock()
					defer w.mu.Unlock()
					return w.b.Idle()
				},
			}
			w.now, w.sleep = clk.Now, clk.Sleep
			if err := w.Start(); err != nil {
				t.Fatal(err)
			}
			defer w.Stop()
			clk.run()
			for _, g := range streams {
				for range g.tok {
				}
			}

			// Scheduling totals, read off the two registries' shared series.
			for _, m := range models.Models {
				s := simReg.CounterVec(telemetry.MetricLLMSteps, "model").With(m.Name).Value()
				g := w.Telemetry.CounterVec(telemetry.MetricLLMSteps, "model").With(m.Name).Value()
				if s != g {
					t.Errorf("steps on %s: sim %v, serve %v", m.Name, s, g)
				}
			}
			for _, kind := range []string{"prefill", "decode"} {
				s := simReg.Counter(telemetry.MetricLLMTokens, "kind", kind).Value()
				g := w.Telemetry.Counter(telemetry.MetricLLMTokens, "kind", kind).Value()
				if s != g {
					t.Errorf("%s tokens: sim %v, serve %v", kind, s, g)
				}
			}
			switches := int(w.Telemetry.Counter(telemetry.MetricLLMModelSwitches).Value())
			if switches != want.ModelSwitches {
				t.Errorf("model switches: sim %d, serve %d", want.ModelSwitches, switches)
			}
			w.mu.Lock()
			steps := w.b.Counts().Steps
			w.mu.Unlock()
			if steps != want.Steps || steps == 0 {
				t.Errorf("steps: sim %d, serve %d", want.Steps, steps)
			}

			// Per-query outcomes: the sim's trace ring is keyed by query ID,
			// the serve streams by submission order — the same index.
			type outcome struct{ ttft, latency float64 }
			simByID := map[int]outcome{}
			for _, qt := range e.Traces.Snapshot() {
				if qt.Error != "" {
					continue
				}
				simByID[qt.ID] = outcome{
					ttft:    qt.Spans[0].Seconds + qt.Spans[1].Seconds, // batch_wait + prefill
					latency: qt.LatencyMS / 1000,
				}
			}
			served, rejected := 0, 0
			for i, g := range streams {
				so, ok := simByID[i]
				if g.reject != "" {
					rejected++
					if ok {
						t.Errorf("query %d: serve rejected (%s), sim served", i, g.reject)
					}
					continue
				}
				served++
				if !ok {
					t.Errorf("query %d: serve served, sim did not", i)
					continue
				}
				if d := math.Abs(g.sum.TTFT - so.ttft); d > 1e-6 {
					t.Errorf("query %d TTFT: sim %.9f, serve %.9f", i, so.ttft, g.sum.TTFT)
				}
				if d := math.Abs(g.sum.Latency - so.latency); d > 1e-6 {
					t.Errorf("query %d latency: sim %.9f, serve %.9f", i, so.latency, g.sum.Latency)
				}
			}
			if served != want.Served || rejected != want.Dropped || len(want.Latencies) != served {
				t.Errorf("served/rejected: sim %d/%d, serve %d/%d", want.Served, want.Dropped, served, rejected)
			}
			if tc.kvCap > 0 && rejected == 0 {
				t.Error("tight-cache case rejected nothing; the case no longer covers KV rejection")
			}
			if tc.kvCap == 0 && switches < 2 {
				t.Errorf("policy case switched models %d times; it no longer covers drain-then-switch", switches)
			}
			t.Logf("%d queries: %d served, %d rejected, %d steps, %d switches",
				len(events), served, rejected, want.Steps, switches)
		})
	}
}
