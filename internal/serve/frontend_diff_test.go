package serve

import (
	"math"
	"slices"
	"testing"

	"ramsis/internal/adapt"
	"ramsis/internal/admit"
	"ramsis/internal/baselines"
	"ramsis/internal/core"
	"ramsis/internal/dist"
	"ramsis/internal/monitor"
	"ramsis/internal/profile"
	"ramsis/internal/sched"
	"ramsis/internal/sim"
	"ramsis/internal/telemetry"
	"ramsis/internal/trace"
)

// replayOnFakeClock starts f over one deterministic worker, both on a fake
// clock, submits every arrival at exactly its modeled instant and returns
// each one's response channel (nil for a query the frontend refused). The
// frontend and worker are stopped with the test.
func replayOnFakeClock(t *testing.T, f *Frontend, arrivals []float64) []<-chan QueryResponse {
	t.Helper()
	pending := make([]<-chan QueryResponse, len(arrivals))
	clk := &replayClock{
		at:     arrivals,
		submit: func(i int) { pending[i], _ = f.Enqueue("") },
		// Outstanding counts queued and in-dispatch queries, and a batch
		// stays in dispatch until its responses are out.
		idle: func() bool { return f.Outstanding() == 0 },
	}
	w := NewWorker(f.Profiles, sim.Deterministic{}, f.TimeScale, 1)
	w.clock, f.clock = clk, clk
	w.net, f.net = pipes, pipes
	if err := w.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = w.Stop() })
	f.Workers = []string{w.URL()}
	if err := f.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = f.Stop() })
	clk.run()
	return pending
}

// TestFrontendQueryFinishingExactlyOnDeadlineMeetsIt is the serve half of
// the one SLO boundary (the sim half is sim's test of the same name): a
// query whose latency equals its SLO met it, here with the clock rounding
// a real frontend sees — the fake clock measures the latency as a
// difference of float64 instants, an ulp or so off the profiled one.
func TestFrontendQueryFinishingExactlyOnDeadlineMeetsIt(t *testing.T) {
	models := profile.ImageSet()
	p := models.Profiles[0]
	for _, tc := range []struct {
		slo float64
		met bool
	}{{p.BatchLatency(1), true}, {p.BatchLatency(1) - 1e-9, false}} {
		f := &Frontend{
			Profiles: models, SLO: tc.slo, TimeScale: 1e-3,
			Select: func(_, _ float64, n int, _ float64) (string, int) { return p.Name, n },
		}
		r := <-replayOnFakeClock(t, f, []float64{0.25})[0]
		if math.Abs(r.LatencyMS/1000-p.BatchLatency(1)) > 1e-9 || r.DeadlineMet != tc.met {
			t.Errorf("SLO %v: latency %v ms, met=%v; want latency %v ms, met=%v",
				tc.slo, r.LatencyMS, r.DeadlineMet, p.BatchLatency(1)*1000, tc.met)
		}
		if v := f.Stats().Violations; (v == 0) != tc.met {
			t.Errorf("SLO %v: %d violations counted, met=%v", tc.slo, v, tc.met)
		}
	}
}

// TestFrontendMatchesSimEngine is the scalar sim ↔ serve differential: one
// worker, the same arrivals, sim.Deterministic latency and the same policy
// ladder — or the same §7 baseline selector value, which the simulator runs
// over its central queue — the frontend and its worker driven by a fake
// clock, and each driver's own 0.5 s moving-average monitor. Both drivers
// run internal/sched — its arrival step observes the monitor on admitted
// arrivals only — so the two decision rings must show the identical
// sequence — every admit, shed, degrade clamp and select, with its model,
// batch, queue length and worker — with times, slack, the monitored rate
// and each query's latency equal to a microsecond of modeled time (the fake
// clock sums float64 modeled seconds, so its own error is ulps). It goes
// through both drivers end to end, so it fails when either one's arrival,
// decision or finish path is edited away from the other's. Each driver
// reads its own copy of the policy ladder through §3.2.2's coverage
// adapter, inline in both, so a rate past the ladder generates the same
// rung in each at the same decision.
func TestFrontendMatchesSimEngine(t *testing.T) {
	models := profile.ImageSet()
	const slo, timeScale, ringCap = 0.150, 1e-3, 1 << 15
	base := core.Config{Models: models, SLO: slo, Workers: 1, Arrival: dist.NewPoisson(1), D: 25}
	generated := core.NewPolicySet(base, nil)
	ladder := []float64{40, 80, 160}
	if err := generated.GenerateLoads(ladder); err != nil {
		t.Fatal(err)
	}
	copyLadder := func() *core.PolicySet {
		set := core.NewPolicySet(base, nil)
		for _, p := range generated.Policies() {
			set.Insert(p)
		}
		return set
	}
	rungs := func(set *core.PolicySet) []float64 {
		var out []float64
		for _, p := range set.Policies() {
			out = append(out, p.Load)
		}
		return out
	}
	est := core.NewWaitEstimator(models, 1)

	cases := []struct {
		name    string
		load    trace.Trace
		admit   admit.Admitter
		degrade bool
		// sel, when set, replaces the policy ladder in both drivers.
		sel sched.Selector
		// above: the rate steps past the ladder's top rung, so both
		// drivers generate rungs on demand; otherwise no ladder may grow.
		above bool
	}{
		// A rate step under a measured load walks the policy ladder up and
		// back down; nothing is shed.
		{name: "ramsis", load: trace.Step(25, 70, 2, 4, 6)},
		// A step to 1.5× the top rung: the first rate read past 160 QPS
		// generates its rung in both drivers, in the decision that read it.
		{name: "above", load: trace.Step(70, 240, 2, 4, 6), above: true},
		// Ten times the ladder's lowest rate: the cap sheds most arrivals
		// and the shed rate walks the degrader up, so shed and clamp
		// decisions are in the sequence. Neither monitor counts the shed
		// arrivals, so the rate both read stays on the ladder.
		{name: "overload", load: trace.Constant(400, 10),
			admit: admit.Cap{Limit: 4, Est: est}, degrade: true},
		// A baseline is written once: the same Jellyfish+ selector drives the
		// simulator's central queue and the frontend, and walks its
		// load-granular choice across the same rate step.
		{name: "jellyfish", load: trace.Step(25, 70, 2, 4, 6),
			sel: baselines.JellyfishPlus{Profiles: models, SLO: slo, Workers: 1}.Selector()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// Arrivals on the microsecond grid are exact on the fake clock.
			var arrivals []float64
			for _, a := range trace.PoissonArrivals(tc.load, 11) {
				if a = math.Round(a*1e6) / 1e6; len(arrivals) == 0 || a > arrivals[len(arrivals)-1] {
					arrivals = append(arrivals, a)
				}
			}
			degrader := func() *admit.Degrader {
				if !tc.degrade {
					return nil
				}
				return admit.NewDegrader(admit.DegradeConfig{
					MaxLevel: models.Len() - 1, Window: 0.2, EnterShedRate: 0.05,
				})
			}

			simSet, serveSet := copyLadder(), copyLadder()
			var scheme sim.Scheduler = sim.NewRAMSIS(simSet, monitor.NewMovingAverage(0.5))
			cover := adapt.NewCoverage(serveSet, false, nil)
			t.Cleanup(cover.Stop)
			sel := sched.AdaptiveSelector(cover)
			if tc.sel != nil {
				scheme, sel = sim.Scheme{Monitor: monitor.NewMovingAverage(0.5), Select: tc.sel}, tc.sel
			}
			e := sim.NewEngine(models, slo, 1, sim.Deterministic{}, scheme, 1)
			e.Admit, e.Degrade = tc.admit, degrader()
			e.Decisions = telemetry.NewDecisionBuffer(ringCap)
			e.Traces = telemetry.NewTraceBuffer(len(arrivals))
			want := e.Run(arrivals)

			f := &Frontend{
				Profiles: models, SLO: slo, TimeScale: timeScale,
				Select: sel, Monitor: monitor.NewMovingAverage(0.5),
				Admit: tc.admit, Degrade: degrader(),
				Decisions: telemetry.NewDecisionBuffer(ringCap),
			}
			pending := replayOnFakeClock(t, f, arrivals)

			// Per-query outcomes: the sim's trace ring is keyed by query ID,
			// the frontend's responses by submission order — the same index.
			simByID := map[int]telemetry.QueryTrace{}
			for _, qt := range e.Traces.Snapshot() {
				simByID[qt.ID] = qt
			}
			served := 0
			for i, ch := range pending {
				qt := simByID[i]
				if ch == nil {
					if qt.Error != "shed" {
						t.Errorf("query %d: serve shed it, sim did not (%+v)", i, qt)
					}
					continue
				}
				r := <-ch
				served++
				if qt.Error != "" || r.Error != "" {
					t.Errorf("query %d: sim %q, serve %q", i, qt.Error, r.Error)
					continue
				}
				if r.Model != qt.Model || r.Batch != qt.Batch || r.DeadlineMet != qt.DeadlineMet ||
					math.Abs(r.LatencyMS-qt.LatencyMS) > 1e-3 {
					t.Errorf("query %d: sim %s×%d %.6f ms met=%v, serve %s×%d %.6f ms met=%v", i,
						qt.Model, qt.Batch, qt.LatencyMS, qt.DeadlineMet, r.Model, r.Batch, r.LatencyMS, r.DeadlineMet)
				}
			}
			if served != want.Served || len(arrivals)-served != want.Shed {
				t.Errorf("served/shed: sim %d/%d, serve %d/%d", want.Served, want.Shed, served, len(arrivals)-served)
			}

			got, exp := f.Decisions.Snapshot(), e.Decisions.Snapshot()
			if len(got) != len(exp) || len(exp) >= ringCap {
				t.Fatalf("decision rings: sim %d records, serve %d (ring holds %d)", len(exp), len(got), ringCap)
			}
			kinds := map[string]int{}
			for i, s := range exp {
				g := got[i]
				kinds[s.Kind]++
				near := func(a, b float64) bool { return math.Abs(a-b) <= 1e-6 }
				if g.Kind != s.Kind || g.Model != s.Model || g.Batch != s.Batch ||
					g.QueueLen != s.QueueLen || g.Worker != s.Worker || g.Outcome != s.Outcome ||
					g.DegradeLevel != s.DegradeLevel || !near(g.Time, s.Time) || !near(g.SlackSec, s.SlackSec) ||
					!near(g.RateQPS, s.RateQPS) ||
					!near(g.PredictedSec, s.PredictedSec) || !near(g.RealizedSec, s.RealizedSec) {
					t.Fatalf("decision %d diverges:\n sim   %+v\n serve %+v", i, s, g)
				}
			}
			if kinds[telemetry.DecisionSelect] != want.Decisions || want.Decisions == 0 {
				t.Errorf("%d select records for %d sim decisions", kinds[telemetry.DecisionSelect], want.Decisions)
			}
			if tc.admit != nil && (kinds[telemetry.DecisionShed] == 0 || kinds[telemetry.DecisionDegrade] == 0) {
				t.Errorf("overload case recorded %v; it no longer covers shed and clamp decisions", kinds)
			}
			if tc.admit == nil && len(want.ModelCounts) < 2 {
				t.Errorf("ramsis case served only %v; it no longer walks the policy ladder", want.ModelCounts)
			}
			maxRate := 0.0
			for _, s := range exp {
				maxRate = max(maxRate, s.RateQPS)
			}
			simRungs, serveRungs := rungs(simSet), rungs(serveSet)
			if !slices.Equal(simRungs, serveRungs) {
				t.Errorf("ladders diverged: sim %v, serve %v", simRungs, serveRungs)
			}
			if grew := len(simRungs) > len(ladder); grew != tc.above || (maxRate > ladder[len(ladder)-1]) != tc.above {
				t.Errorf("ladder %v is %v; the drivers read rates up to %v", ladder, simRungs, maxRate)
			}
			if tc.above && cover.Stats().Resolves != uint64(len(serveRungs)-len(ladder)) {
				t.Errorf("serve generated %+v for rungs %v", cover.Stats(), serveRungs)
			}
			t.Logf("%d arrivals, %d served, decisions %v, models %d, rates up to %v, rungs %v", len(arrivals), served, kinds, len(want.ModelCounts), maxRate, simRungs)
		})
	}
}
