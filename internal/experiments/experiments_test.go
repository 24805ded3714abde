package experiments

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"ramsis/internal/core"
	"ramsis/internal/profile"
	"ramsis/internal/trace"
)

// quickHarness runs the minimal grid and saves results under a temporary
// directory; these tests assert the paper's structural claims, not absolute
// numbers.
func quickHarness(t *testing.T) *Harness {
	return New(Options{Quick: true, Out: io.Discard, Seed: 1, ResultsDir: t.TempDir()})
}

// checkSaved decodes the name.json the harness wrote and requires it to
// equal the result the experiment returned.
func checkSaved[T any](t *testing.T, h *Harness, name string, want T) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(h.opts.ResultsDir, name+".json"))
	if err != nil {
		t.Fatal(err)
	}
	var got T
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatalf("%s.json: %v", name, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s.json decodes to %+v, want %+v", name, got, want)
	}
}

func TestFig3Fig9Profiles(t *testing.T) {
	h := quickHarness(t)
	img := h.Fig3()
	if len(img) != 26 {
		t.Fatalf("Fig3 rows = %d, want 26", len(img))
	}
	pareto := 0
	for _, r := range img {
		if r.Pareto {
			pareto++
		}
	}
	if pareto != 9 {
		t.Errorf("Fig3 Pareto models = %d, want 9", pareto)
	}
	txt := h.Fig9()
	if len(txt) != 5 {
		t.Fatalf("Fig9 rows = %d, want 5", len(txt))
	}
	checkSaved(t, h, "fig3", img)
	checkSaved(t, h, "fig9", txt)
}

func TestFig5ProductionTraceClaims(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy experiment; skipped with -short")
	}
	h := quickHarness(t)
	res := h.Fig5()
	for _, p := range res {
		checkRAMSISWins(t, p.Series, p.Task, p.SLO)
	}
	checkSaved(t, h, "fig5", res)
}

func TestFig6ConstantLoadClaims(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy experiment; skipped with -short")
	}
	h := quickHarness(t)
	res := h.Fig6()
	for _, p := range res {
		checkRAMSISWins(t, p.Series, p.Task, p.SLO)
	}
	checkSaved(t, h, "fig6", res)
}

// checkRAMSISWins asserts the headline claim on a series: at every point
// where both RAMSIS and a baseline report (<5% violations), RAMSIS's
// accuracy is at least the baseline's (allowing sampling noise).
func checkRAMSISWins(t *testing.T, series Series, task string, slo float64) {
	t.Helper()
	ram := map[float64]Point{}
	for _, p := range series[MethodRAMSIS] {
		ram[p.X] = p
	}
	for _, base := range []string{MethodMS, MethodJF} {
		for _, b := range series[base] {
			r, ok := ram[b.X]
			if !ok || !r.Reported || !b.Reported {
				continue
			}
			if r.Accuracy < b.Accuracy-0.005 {
				t.Errorf("%s SLO %.0fms x=%v: RAMSIS %.4f below %s %.4f",
					task, slo*1000, b.X, r.Accuracy, base, b.Accuracy)
			}
		}
	}
}

func TestFig7FidelityBounds(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy experiment; skipped with -short")
	}
	h := quickHarness(t)
	pts := h.Fig7()
	checkSaved(t, h, "fig7", pts)
	if len(pts) == 0 {
		t.Fatal("no fidelity points")
	}
	for _, p := range pts {
		// Below peak capacity the expectation is a lower bound on accuracy
		// and an upper bound on violations (§5.1, §7.3.1). Beyond capacity
		// the expectation overestimates violations by design.
		if p.SimViolation < 0.05 {
			if p.SimAccuracy < p.ExpAccuracy-0.02 {
				t.Errorf("w=%d load=%v: sim accuracy %.4f below expectation %.4f",
					p.Workers, p.Load, p.SimAccuracy, p.ExpAccuracy)
			}
			if p.SimViolation > p.ExpViolation+0.02 {
				t.Errorf("w=%d load=%v: sim violations %.5f above expectation %.5f",
					p.Workers, p.Load, p.SimViolation, p.ExpViolation)
			}
		}
		// Latency variance only helps (§7.3.1).
		if p.ImplAccuracy < p.SimAccuracy-0.02 {
			t.Errorf("w=%d load=%v: implementation accuracy %.4f below simulation %.4f",
				p.Workers, p.Load, p.ImplAccuracy, p.SimAccuracy)
		}
	}
}

func TestFig8ModelCountClaims(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy experiment; skipped with -short")
	}
	h := quickHarness(t)
	series := h.Fig8()
	checkSaved(t, h, "fig8", series)
	r9 := map[float64]Point{}
	for _, p := range series["RAMSIS M=9"] {
		r9[p.X] = p
	}
	m9 := map[float64]Point{}
	for _, p := range series["MS M=9"] {
		m9[p.X] = p
	}
	for _, p := range series["RAMSIS M=60"] {
		base, ok := r9[p.X]
		if !ok || !p.Reported || !base.Reported {
			continue
		}
		// §7.3.2: negligible RAMSIS improvement from 60 models.
		if gain := p.Accuracy - base.Accuracy; gain > 0.01 {
			t.Errorf("x=%v: RAMSIS gains %.4f from 60 models; want negligible", p.X, gain)
		}
		// RAMSIS (either size) stays above ModelSwitching M=60 at the same x.
		for _, ms60 := range series["MS M=60"] {
			if ms60.X == p.X && ms60.Reported && p.Accuracy < ms60.Accuracy-0.005 {
				t.Errorf("x=%v: RAMSIS M=60 %.4f below MS M=60 %.4f", p.X, p.Accuracy, ms60.Accuracy)
			}
		}
	}
	for _, p := range series["MS M=60"] {
		base, ok := m9[p.X]
		if !ok || !p.Reported || !base.Reported {
			continue
		}
		if p.Accuracy < base.Accuracy-0.005 {
			t.Errorf("x=%v: MS loses accuracy with more models", p.X)
		}
	}
}

func TestFig10DiscretizationOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy experiment; skipped with -short")
	}
	h := quickHarness(t)
	series := h.Fig10()
	checkSaved(t, h, "fig10", series)
	at := func(label string, x float64) float64 {
		for _, p := range series[label] {
			if p.X == x {
				return p.Accuracy
			}
		}
		t.Fatalf("missing %s at %v", label, x)
		return 0
	}
	for _, p := range series["MD"] {
		x := p.X
		// §C: D=100 matches MD; smaller D is conservative.
		if at("FLD D=100", x) < at("FLD D=2", x)-0.005 {
			t.Errorf("x=%v: D=100 below D=2", x)
		}
		if d100, md := at("FLD D=100", x), p.Accuracy; d100 < md-0.01 || d100 > md+0.01 {
			t.Errorf("x=%v: FLD D=100 (%.4f) does not match MD (%.4f)", x, d100, md)
		}
	}
}

func TestFig11BatchingEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy experiment; skipped with -short")
	}
	h := quickHarness(t)
	series := h.Fig11()
	checkSaved(t, h, "fig11", series)
	maxPts := map[float64]Point{}
	for _, p := range series["max"] {
		maxPts[p.X] = p
	}
	for _, p := range series["variable"] {
		base, ok := maxPts[p.X]
		if !ok {
			continue
		}
		if d := p.Accuracy - base.Accuracy; d < -0.01 || d > 0.02 {
			t.Errorf("x=%v: variable batching accuracy %.4f not ~= maximal %.4f", p.X, p.Accuracy, base.Accuracy)
		}
	}
}

func TestFig12AblationClaims(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy experiment; skipped with -short")
	}
	h := quickHarness(t)
	series := h.Fig12()
	checkSaved(t, h, "fig12", series)
	jf3 := map[float64]Point{}
	for _, p := range series["JF+-3m"] {
		jf3[p.X] = p
	}
	for _, p := range series["RAMSIS-3m"] {
		b, ok := jf3[p.X]
		if !ok || !p.Reported || !b.Reported {
			continue
		}
		// §E: RAMSIS always stays above Jellyfish+ at equal model sets.
		if p.Accuracy < b.Accuracy-0.005 {
			t.Errorf("x=%v: RAMSIS-3m %.4f below JF+-3m %.4f", p.X, p.Accuracy, b.Accuracy)
		}
	}
}

func TestINFaaSNeverBeatsRAMSIS(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy experiment; skipped with -short")
	}
	h := quickHarness(t)
	series := h.INFaaS()
	checkSaved(t, h, "infaas", series)
	ram := map[float64]Point{}
	for _, p := range series[MethodRAMSIS] {
		ram[p.X] = p
	}
	for _, p := range series["INFaaS(best)"] {
		r, ok := ram[p.X]
		if !ok || !r.Reported {
			continue
		}
		if p.Accuracy > r.Accuracy+0.005 {
			t.Errorf("x=%v: INFaaS best %.4f above RAMSIS %.4f (§H says it cannot)", p.X, p.Accuracy, r.Accuracy)
		}
	}
}

func TestSQFRunsCleanly(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy experiment; skipped with -short")
	}
	h := quickHarness(t)
	series := h.SQF()
	checkSaved(t, h, "sqf", series)
	// The policy cache serves each arm its own policies: with a cold cache
	// the figure is the one generated without it.
	cached := New(Options{Quick: true, Out: io.Discard, Seed: 1, PolicyDir: t.TempDir()}).SQF()
	if !reflect.DeepEqual(cached, series) {
		t.Errorf("SQF with -policy-dir = %+v, want %+v", cached, series)
	}
	for _, label := range []string{"RR", "SQF"} {
		if len(series[label]) == 0 {
			t.Fatalf("missing %s series", label)
		}
		for _, p := range series[label] {
			if !p.Reported {
				t.Errorf("%s at x=%v has %.4f violations (sub-critical loads should report)", label, p.X, p.Violation)
			}
		}
	}
}

// TestParallelMatchesSerial pins runAll's contract: the same grid run on one
// goroutine and on four produces bit-identical figure output, because every
// run has its own seeded RNG streams and results are placed by grid
// position. Fig. 6 exercises the sweep plus both single-flight caches
// (policy sets and the ModelSwitching profile).
func TestParallelMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy experiment; skipped with -short")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	fig6 := func(procs int) ([]Panel, string) {
		runtime.GOMAXPROCS(procs)
		var out bytes.Buffer
		return New(Options{Quick: true, Out: &out, Seed: 1}).Fig6(), out.String()
	}
	serial, serialOut := fig6(1)
	parallel, parallelOut := fig6(4)
	if !reflect.DeepEqual(serial, parallel) {
		t.Errorf("Fig6 at GOMAXPROCS 4 differs from 1:\nserial:   %+v\nparallel: %+v", serial, parallel)
	}
	if serialOut != parallelOut {
		t.Errorf("Fig6 printed rows at GOMAXPROCS 4 differ from 1:\n--- serial ---\n%s\n--- parallel ---\n%s",
			serialOut, parallelOut)
	}
}

// TestRunAllPanicPropagates pins runAll's error semantics: a panicking spec
// (unknown method) aborts the sweep instead of dying in a worker goroutine.
func TestRunAllPanicPropagates(t *testing.T) {
	h := New(Options{Quick: true, Out: io.Discard})
	defer func() {
		if recover() == nil {
			t.Error("runAll swallowed the worker panic")
		}
	}()
	h.runAll([]runSpec{
		{method: "no-such-method", tr: trace.Constant(10, 1), models: profile.ImageSet()},
		{method: "no-such-method", tr: trace.Constant(10, 1), models: profile.ImageSet()},
	})
}

func TestLoadRange(t *testing.T) {
	got := loadRange(400, 1200, 400)
	want := []float64{400, 800, 1200}
	if len(got) != len(want) {
		t.Fatalf("loadRange = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("loadRange = %v, want %v", got, want)
		}
	}
}

func TestHarnessScaleSelection(t *testing.T) {
	if New(Options{Out: io.Discard}).scale() != scaleDefault {
		t.Error("default scale wrong")
	}
	if New(Options{Quick: true, Out: io.Discard}).scale() != scaleQuick {
		t.Error("quick scale wrong")
	}
	if New(Options{Full: true, Quick: true, Out: io.Discard}).scale() != scaleFull {
		t.Error("full should win over quick")
	}
}

func TestPolicyDirCaching(t *testing.T) {
	dir := t.TempDir()
	h := New(Options{Quick: true, Out: io.Discard, PolicyDir: dir, D: 25})
	s1 := h.policySet(profile.ImageSet(), 0.150, 4, []float64{100}, "", nil)
	if len(s1.Policies()) != 1 {
		t.Fatal("policy not generated")
	}
	// A fresh harness must load from disk (same result, no panic).
	h2 := New(Options{Quick: true, Out: io.Discard, PolicyDir: dir, D: 25})
	s2 := h2.policySet(profile.ImageSet(), 0.150, 4, []float64{100}, "", nil)
	p1, _ := s1.PolicyFor(100)
	p2, _ := s2.PolicyFor(100)
	if p1.ExpectedAccuracy != p2.ExpectedAccuracy {
		t.Errorf("cached policy differs: %v vs %v", p1.ExpectedAccuracy, p2.ExpectedAccuracy)
	}
	// A file generated under another balancing assumption is not this
	// config's policy, even when it sits at this config's path.
	sqf := core.Config{Models: profile.ImageSet(), SLO: 0.150, Workers: 4, D: 25, Balancing: core.ShortestQueueFirst}
	if err := p1.Save(h.policyPath(sqf, 100)); err != nil {
		t.Fatal(err)
	}
	if missing := h.loadCached(core.NewPolicySet(sqf, nil), sqf, []float64{100}); len(missing) != 1 {
		t.Errorf("a round-robin policy file was loaded for a shortest-queue-first config")
	}
}

// TestPolicyPathKeysVariantFields pins the policy cache's key: configs that
// differ only in a field some figure's variant mutate sets must not share a
// cache file, or whichever arm generates first decides the other's policy.
func TestPolicyPathKeysVariantFields(t *testing.T) {
	h := New(Options{Out: io.Discard, PolicyDir: "cache"})
	base := core.Config{Models: profile.ImageSet(), SLO: 0.150, Workers: 8}
	for field, mutate := range map[string]func(*core.Config){
		"D":         func(c *core.Config) { c.D = 50 },
		"Disc":      func(c *core.Config) { c.Disc = core.ModelBased },
		"Batching":  func(c *core.Config) { c.Batching = core.VariableBatching },
		"Balancing": func(c *core.Config) { c.Balancing = core.ShortestQueueFirst },
	} {
		cfg := base
		mutate(&cfg)
		if h.policyPath(cfg, 300) == h.policyPath(base, 300) {
			t.Errorf("configs differing in %s share the cache file %s", field, h.policyPath(base, 300))
		}
	}
}

// TestResultsDirExport pins saveResult's failure semantics: no directory
// is a no-op, and a result that cannot be encoded or written fails the run
// instead of leaving a missing artifact behind a clean exit.
func TestResultsDirExport(t *testing.T) {
	New(Options{Quick: true, Out: io.Discard}).saveResult("probe", math.NaN())

	file := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	for name, c := range map[string]struct {
		dir string
		v   interface{}
	}{
		"unencodable": {t.TempDir(), math.NaN()},
		"unwritable":  {file, 1},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: saveResult did not fail the run", name)
				}
			}()
			New(Options{Quick: true, Out: io.Discard, ResultsDir: c.dir}).saveResult("probe", c.v)
		}()
	}
}

func TestFig2LullExploitation(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy experiment; skipped with -short")
	}
	h := quickHarness(t)
	res := h.Fig2()
	checkSaved(t, h, "fig2", res)
	// The load-granular baseline is pinned to one model...
	if len(res.ModelShare[MethodJF]) != 1 {
		t.Errorf("Jellyfish+ used %d models at constant load, want 1", len(res.ModelShare[MethodJF]))
	}
	// ...while RAMSIS mixes models, upgrading during lulls.
	if len(res.ModelShare[MethodRAMSIS]) < 2 {
		t.Errorf("RAMSIS used %d models, want several", len(res.ModelShare[MethodRAMSIS]))
	}
	if res.UpgradeFraction <= 0 {
		t.Error("RAMSIS never upgraded beyond the load-granular model")
	}
	if len(res.Timeline) == 0 {
		t.Error("no decision timeline recorded")
	}
}

func TestMisspecArrivalSensitivity(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy experiment; skipped with -short")
	}
	h := quickHarness(t)
	pts := h.Misspec()
	checkSaved(t, h, "misspec", pts)
	byName := map[string]MisspecPoint{}
	for _, p := range pts {
		byName[p.Arrivals] = p
	}
	calm := byName["Erlang-4 (calmer)"]
	assumed := byName["Poisson (assumed)"]
	bursty := byName["OnOff x2 (burstier)"]
	// Calmer-than-assumed traffic must not violate more than assumed.
	if calm.Violation > assumed.Violation+0.005 {
		t.Errorf("calmer arrivals violate more (%v) than assumed (%v)", calm.Violation, assumed.Violation)
	}
	// Burstier-than-assumed traffic erodes the guarantee.
	if bursty.Violation <= assumed.Violation+0.005 {
		t.Errorf("burstier arrivals did not erode the guarantee: %v vs %v", bursty.Violation, assumed.Violation)
	}
}

func TestGreedyPaysInViolations(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy experiment; skipped with -short")
	}
	h := quickHarness(t)
	series := h.Greedy()
	checkSaved(t, h, "greedy", series)
	ram := map[float64]Point{}
	for _, p := range series[MethodRAMSIS] {
		ram[p.X] = p
	}
	for _, g := range series[MethodGreedy] {
		r, ok := ram[g.X]
		if !ok {
			continue
		}
		// §8: greedy's optimism costs violations RAMSIS avoids.
		if g.Violation <= r.Violation+0.01 {
			t.Errorf("x=%v: greedy violations %.4f not above RAMSIS %.4f", g.X, g.Violation, r.Violation)
		}
		if !r.Reported {
			t.Errorf("x=%v: RAMSIS itself failed to report (%v violations)", g.X, r.Violation)
		}
	}
}

func TestScalingStaysPolynomial(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy experiment; skipped with -short")
	}
	h := quickHarness(t)
	pts := h.Scaling()
	checkSaved(t, h, "scaling", pts)
	if len(pts) < 4 {
		t.Fatalf("scaling produced %d points", len(pts))
	}
	for _, p := range pts {
		if p.States <= 0 || p.Transitions <= 0 {
			t.Errorf("degenerate point %+v", p)
		}
		// §5.2: far from the exponential naive formulation — the paper's
		// naive MDP at these sizes would not finish in 24 h; ours must stay
		// within seconds per policy even in the largest cell.
		if p.Runtime.Seconds() > 30 {
			t.Errorf("cell |M|=%d N_w=%d took %v; polynomial claim in doubt", p.Models, p.MaxQueue, p.Runtime)
		}
	}
	// More queue capacity means more states.
	if !(pts[len(pts)-1].States > pts[len(pts)-2].States) {
		t.Errorf("states not increasing in N_w: %+v", pts[len(pts)-2:])
	}
}
