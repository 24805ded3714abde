package baselines

import (
	"encoding/json"
	"math"
	"reflect"
	"testing"

	"ramsis/internal/core"
	"ramsis/internal/dist"
	"ramsis/internal/monitor"
	"ramsis/internal/profile"
	"ramsis/internal/sim"
	"ramsis/internal/trace"
)

func TestAdaptiveMaxBatch(t *testing.T) {
	ps := profile.ImageSet()
	batch := func(name string) int {
		sel := LoadGranular(ps, 0.150, func(float64) int {
			for i, p := range ps.Profiles {
				if p.Name == name {
					return i
				}
			}
			t.Fatalf("no model %s", name)
			return -1
		})
		model, b := sel(0, 0, 100, 1)
		if model != name {
			t.Errorf("selected %s, want %s", model, name)
		}
		return b
	}
	// l(b) = 6 + 16.9b <= 75 -> b = 4.
	if got := batch("shufflenet_v2_x0_5"); got != 4 {
		t.Errorf("half-SLO batch cap = %d, want 4", got)
	}
	if got := batch("efficientnet_v2_s"); got != 1 {
		t.Errorf("half-SLO batch cap for slow model = %d, want fallback 1", got)
	}
}

func TestJellyfishModelSelectionMonotone(t *testing.T) {
	ps := profile.ImageSet()
	j := JellyfishPlus{Profiles: ps, SLO: 0.150, Workers: 60}
	prevAcc := math.Inf(1)
	for _, load := range []float64{400, 1200, 2000, 2800, 3600} {
		m := j.ModelFor(load)
		acc := ps.Profiles[m].Accuracy
		if acc > prevAcc+1e-12 {
			t.Errorf("Jellyfish+ accuracy increased with load at %v QPS", load)
		}
		prevAcc = acc
		// The selected model must sustain the load within SLO/2 latency —
		// unless no model can, in which case the fastest is the fallback.
		anySustains := false
		for _, q := range ps.Profiles {
			if q.BatchLatency(1) <= 0.075 && 60*q.ThroughputWithin(0.075) >= load {
				anySustains = true
				break
			}
		}
		p := ps.Profiles[m]
		if anySustains && 60*p.ThroughputWithin(0.075) < load {
			t.Errorf("Jellyfish+ chose %s which cannot sustain %v QPS", p.Name, load)
		}
	}
	// At trivial load the most accurate eligible (latency <= SLO/2) model
	// should be chosen.
	m := j.ModelFor(1)
	best := -1
	bestAcc := -1.0
	for i, p := range ps.Profiles {
		if p.BatchLatency(1) <= 0.075 && p.Accuracy > bestAcc {
			best, bestAcc = i, p.Accuracy
		}
	}
	if m != best {
		t.Errorf("Jellyfish+ at low load chose %s, want %s", ps.Profiles[m].Name, ps.Profiles[best].Name)
	}
}

func TestJellyfishFallbackAtImpossibleLoad(t *testing.T) {
	ps := profile.ImageSet()
	j := JellyfishPlus{Profiles: ps, SLO: 0.150, Workers: 1}
	m := j.ModelFor(1e9)
	if ps.Profiles[m].Name != "shufflenet_v2_x0_5" {
		t.Errorf("fallback model = %s, want fastest", ps.Profiles[m].Name)
	}
}

func TestProfileModelSwitchingTable(t *testing.T) {
	ps := profile.ImageSet().Subset("shufflenet_v2_x0_5", "efficientnet_b2", "efficientnet_v2_s")
	loads := []float64{100, 200, 400}
	tab := ProfileModelSwitching(ps, 0.150, 4, loads, 10, 1)
	if len(tab.P99) != 3 || len(tab.P99[0]) != 3 {
		t.Fatalf("table shape wrong: %dx%d", len(tab.P99), len(tab.P99[0]))
	}
	// p99 response latency is at least the service latency and grows with
	// load for a fixed model.
	for mi := range tab.P99 {
		for li := range loads {
			if !math.IsInf(tab.P99[mi][li], 1) && tab.P99[mi][li] < ps.Profiles[mi].BatchLatency(1)*0.99 {
				t.Errorf("p99[%d][%d] = %v below service latency", mi, li, tab.P99[mi][li])
			}
		}
	}
	// Overloaded (model, load) pairs are marked infeasible.
	slow := 2 // efficientnet_v2_s: throughput ~3.4 QPS/worker
	if !math.IsInf(tab.P99[slow][2], 1) {
		t.Errorf("v2_s at 400 QPS on 4 workers should be infeasible, got %v", tab.P99[slow][2])
	}
	// P99For picks the covering rung and +Inf beyond the range.
	if got := tab.P99For(0, 150); got != tab.P99[0][1] {
		t.Errorf("P99For(150) = %v, want rung 200 value %v", got, tab.P99[0][1])
	}
	if !math.IsInf(tab.P99For(0, 1e6), 1) {
		t.Error("P99For beyond range should be +Inf")
	}
}

// TestMSTableJSON: the file form carries a diverging latency as null, so a
// table with +Inf cells — every table msgen profiles at its defaults —
// survives the round trip, and a file the program did not write is checked.
func TestMSTableJSON(t *testing.T) {
	tab := &MSTable{Loads: []float64{100, 200}, P99: [][]float64{{0.05, math.Inf(1)}, {math.Inf(1), math.Inf(1)}}}
	data, err := json.Marshal(tab)
	if err != nil {
		t.Fatal(err)
	}
	if want := `{"Loads":[100,200],"P99":[[0.05,null],[null,null]]}`; string(data) != want {
		t.Errorf("file form %s, want %s", data, want)
	}
	var got MSTable
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&got, tab) {
		t.Errorf("round trip gave %+v, want %+v", got, tab)
	}
	for name, bad := range map[string]string{
		"negative latency": `{"Loads":[100],"P99":[[-0.01]]}`,
		"short row":        `{"Loads":[100,200],"P99":[[0.05]]}`,
		"NaN":              `{"Loads":[100],"P99":[[NaN]]}`,
	} {
		if err := json.Unmarshal([]byte(bad), new(MSTable)); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

func TestModelSwitchingSelection(t *testing.T) {
	ps := profile.ImageSet()
	loads := []float64{400, 800, 1200, 1600, 2000, 2400, 2800, 3200}
	tab := ProfileModelSwitching(ps, 0.150, 60, loads, 10, 1)
	ms := ModelSwitching{Profiles: ps, SLO: 0.150, Table: tab}
	low := ms.ModelFor(400)
	high := ms.ModelFor(3200)
	if ps.Profiles[low].Accuracy < ps.Profiles[high].Accuracy {
		t.Errorf("ModelSwitching accuracy at low load (%s) below high load (%s)",
			ps.Profiles[low].Name, ps.Profiles[high].Name)
	}
	// The p99-within-SLO constraint must hold for the chosen model.
	if got := tab.P99For(low, 400); got > 0.150 {
		t.Errorf("chosen model's p99 %v violates SLO", got)
	}
}

func TestGreedyMeetsDeadlinesGreedily(t *testing.T) {
	ps := profile.ImageSet()
	g := Greedy{Profiles: ps, SLO: 0.150}
	e := sim.NewEngine(ps, 0.150, 1, sim.Deterministic{}, sim.Scheme{Select: g.Select}, 1)
	m := e.Run([]float64{0})
	if m.Served != 1 || m.Violations != 0 {
		t.Fatalf("greedy single query: %+v", m)
	}
	// With a single fresh query, greedy picks the most accurate model whose
	// batch-1 latency fits the full SLO.
	want := ""
	bestAcc := -1.0
	for _, p := range ps.Profiles {
		if p.BatchLatency(1) <= 0.150 && p.Accuracy > bestAcc {
			want, bestAcc = p.Name, p.Accuracy
		}
	}
	if m.ModelCounts[want] != 1 {
		t.Errorf("greedy chose %v, want %s", m.ModelCounts, want)
	}
}

func TestINFaaSSelectsCheapestMeetingAccuracy(t *testing.T) {
	ps := profile.ImageSet()
	f := INFaaSAdapted{Profiles: ps, SLO: 0.150, Workers: 60, AccTarget: 0.70}
	m := f.ModelFor(400)
	p := ps.Profiles[m]
	if p.Accuracy < 0.70 {
		t.Errorf("INFaaS chose %s below the accuracy target", p.Name)
	}
	// Appendix H: INFaaS minimizes latency, so no cheaper model meeting the
	// target should exist.
	for _, q := range ps.Profiles {
		if q.Accuracy >= 0.70 && q.BatchLatency(1) < p.BatchLatency(1) &&
			q.BatchLatency(1) <= 0.075 && 60*q.ThroughputWithin(0.075) >= 400 {
			t.Errorf("INFaaS chose %s but %s is cheaper and eligible", p.Name, q.Name)
		}
	}
}

// TestRAMSISBeatsBaselinesAtConstantLoad is the headline §7.2 comparison in
// miniature: same resources, same load, same SLO — RAMSIS achieves higher
// accuracy with a comparable violation rate.
func TestRAMSISBeatsBaselinesAtConstantLoad(t *testing.T) {
	const workers, slo, load = 12, 0.150, 500.0
	ps := profile.ImageSet()
	tr := trace.Constant(load, 30)
	arr := trace.PoissonArrivals(tr, 31)

	// RAMSIS.
	set := core.NewPolicySet(core.Config{
		Models: ps, SLO: slo, Workers: workers, Arrival: dist.NewPoisson(1), D: 50,
	}, nil)
	if err := set.GenerateLoads([]float64{load}); err != nil {
		t.Fatal(err)
	}
	eR := sim.NewEngine(ps, slo, workers, sim.Deterministic{}, sim.NewRAMSIS(set, monitor.Oracle{Trace: tr}), 1)
	mR := eR.Run(arr)

	// Jellyfish+.
	jf := JellyfishPlus{Profiles: ps, SLO: slo, Workers: workers}
	eJ := sim.NewEngine(ps, slo, workers, sim.Deterministic{}, sim.Scheme{Monitor: monitor.Oracle{Trace: tr}, Select: jf.Selector()}, 1)
	mJ := eJ.Run(arr)

	// ModelSwitching.
	tab := ProfileModelSwitching(ps, slo, workers, []float64{250, 500, 750}, 10, 1)
	msw := ModelSwitching{Profiles: ps, SLO: slo, Table: tab}
	eM := sim.NewEngine(ps, slo, workers, sim.Deterministic{}, sim.Scheme{Monitor: monitor.Oracle{Trace: tr}, Select: msw.Selector()}, 1)
	mM := eM.Run(arr)

	accR, accJ, accM := mR.AccuracyPerSatisfiedQuery(), mJ.AccuracyPerSatisfiedQuery(), mM.AccuracyPerSatisfiedQuery()
	t.Logf("accuracy: RAMSIS %.4f Jellyfish+ %.4f ModelSwitching %.4f", accR, accJ, accM)
	t.Logf("violations: RAMSIS %.4f Jellyfish+ %.4f ModelSwitching %.4f",
		mR.ViolationRate(), mJ.ViolationRate(), mM.ViolationRate())
	if accR <= accJ {
		t.Errorf("RAMSIS accuracy %.4f not above Jellyfish+ %.4f", accR, accJ)
	}
	if accR <= accM {
		t.Errorf("RAMSIS accuracy %.4f not above ModelSwitching %.4f", accR, accM)
	}
	for name, m := range map[string]sim.Metrics{"RAMSIS": mR, "JF+": mJ, "MS": mM} {
		if m.ViolationRate() > 0.05 {
			t.Errorf("%s violation rate %.4f above the 5%% reporting threshold", name, m.ViolationRate())
		}
	}
}
