// Package experiments regenerates every table and figure of the paper's
// evaluation (§7, §C-§I). Each experiment has two sizes: the default scaled
// run (shorter traces, coarser sweeps — same series, same shape) and the
// paper-scale grid selected with Options.Full. Results are printed as the
// rows/series the paper reports and returned structured for tests and
// benches.
package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"ramsis/internal/baselines"
	"ramsis/internal/core"
	"ramsis/internal/dist"
	"ramsis/internal/monitor"
	"ramsis/internal/plot"
	"ramsis/internal/profile"
	"ramsis/internal/sim"
	"ramsis/internal/trace"
)

// Method names follow the artifact's CLI ("RAMSIS", "MS", "JF") plus the
// extensions evaluated in the appendices.
const (
	MethodRAMSIS = "RAMSIS"
	MethodJF     = "JF"
	MethodMS     = "MS"
	MethodGreedy = "Greedy"
	MethodINFaaS = "INFaaS"
)

// Options configure a harness.
type Options struct {
	// Full selects the paper-scale grid instead of the scaled default.
	Full bool
	// Quick selects a minimal grid (every series present, very few points)
	// for benches and CI on small machines. Full wins if both are set.
	Quick bool
	// Out receives the printed rows; defaults to os.Stdout.
	Out io.Writer
	// Seed fixes every sampled arrival stream and latency noise stream.
	Seed int64
	// PolicyDir, when set, caches generated policies as JSON on disk so
	// repeated runs skip regeneration (mirrors the artifact's policy_gen/).
	PolicyDir string
	// ResultsDir, when set, writes each experiment's structured result as
	// JSON (mirrors the artifact's results/ directory).
	ResultsDir string
	// Plot renders each figure's accuracy series as an ASCII chart in
	// addition to the numeric rows.
	Plot bool
	// D is the FLD resolution for generated policies; default 100 (§6).
	D int
}

// Harness runs experiments with memoized policy sets and baseline profiles.
type Harness struct {
	opts Options

	mu       sync.Mutex
	sets     map[string]*setEntry
	msTables map[string]*msEntry
}

// setEntry single-flights one memoized policy set: the first caller of a
// key generates inside once, concurrent callers block on it and read the
// finished set. Check-then-insert under mu alone would let two parallel
// runs generate the same set twice.
type setEntry struct {
	once sync.Once
	set  *core.PolicySet
}

// msEntry single-flights one ModelSwitching profile the same way.
type msEntry struct {
	once  sync.Once
	table *baselines.MSTable
}

// New builds a harness.
func New(opts Options) *Harness {
	if opts.Out == nil {
		opts.Out = os.Stdout
	}
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	if opts.D == 0 {
		opts.D = 100
	}
	return &Harness{
		opts:     opts,
		sets:     map[string]*setEntry{},
		msTables: map[string]*msEntry{},
	}
}

func (h *Harness) printf(format string, args ...interface{}) {
	fmt.Fprintf(h.opts.Out, format, args...)
}

// plotSeries renders a figure's accuracy-vs-x series as an ASCII chart when
// plotting is enabled. Only reported points (<5% violations) are drawn,
// matching the paper's figures.
func (h *Harness) plotSeries(title string, series Series) {
	if !h.opts.Plot {
		return
	}
	var ps []plot.Series
	methods := make([]string, 0, len(series))
	for m := range series {
		methods = append(methods, m)
	}
	sort.Strings(methods)
	for _, m := range methods {
		s := plot.Series{Label: m}
		for _, p := range series[m] {
			if p.Reported {
				s.Points = append(s.Points, plot.Point{X: p.X, Y: p.Accuracy})
			}
		}
		ps = append(ps, s)
	}
	plot.Render(h.opts.Out, title, 60, 14, ps)
}

// saveResult writes an experiment's structured result to ResultsDir as
// <name>.json; it is a no-op when no directory is configured. A result that
// cannot be written fails the run, as a failed policy generation does: an
// experiment whose artifact is missing has not reproduced anything.
func (h *Harness) saveResult(name string, v interface{}) {
	if h.opts.ResultsDir == "" {
		return
	}
	data, err := json.MarshalIndent(v, "", " ")
	if err == nil {
		err = os.MkdirAll(h.opts.ResultsDir, 0o755)
	}
	if err == nil {
		err = os.WriteFile(filepath.Join(h.opts.ResultsDir, name+".json"), data, 0o644)
	}
	if err != nil {
		panic(fmt.Sprintf("experiments: results %s: %v", name, err))
	}
}

// runScale is the experiment grid size.
type runScale int

const (
	scaleQuick runScale = iota
	scaleDefault
	scaleFull
)

func (h *Harness) scale() runScale {
	switch {
	case h.opts.Full:
		return scaleFull
	case h.opts.Quick:
		return scaleQuick
	}
	return scaleDefault
}

// slosFor returns the paper's latency SLOs per task (§7): image
// {150, 300, 500} ms, text {100, 200, 300} ms.
func slosFor(task string) []float64 {
	if task == "text" {
		return []float64{0.100, 0.200, 0.300}
	}
	return []float64{0.150, 0.300, 0.500}
}

// fig6Workers returns the §7.2 worker counts: 60 for image, 20 for text.
func fig6Workers(task string) int {
	if task == "text" {
		return 20
	}
	return 60
}

// constLoads picks a constant-load figure's grid by scale: the default
// loads run 20 s each, the paper-scale loads 30 s, the quick loads 10 s.
func (h *Harness) constLoads(def, full, quick []float64) (loads []float64, dur float64) {
	switch h.scale() {
	case scaleFull:
		return full, 30
	case scaleQuick:
		return quick, 10
	}
	return def, 20
}

// loadRange builds QPS rungs from lo to hi inclusive.
func loadRange(lo, hi, step float64) []float64 {
	var out []float64
	for l := lo; l <= hi+1e-9; l += step {
		out = append(out, l)
	}
	return out
}

// policySet memoizes a RAMSIS policy set for (models, slo, workers, loads).
// variant distinguishes configurations produced by mutate (e.g. "FLD10").
func (h *Harness) policySet(models profile.Set, slo float64, workers int, loads []float64, variant string, mutate func(*core.Config)) *core.PolicySet {
	key := fmt.Sprintf("%s|%d|%.0f|%d|%v|%s", models.Task, models.Len(), slo*1000, workers, loads, variant)
	h.mu.Lock()
	e, ok := h.sets[key]
	if !ok {
		e = &setEntry{}
		h.sets[key] = e
	}
	h.mu.Unlock()
	e.once.Do(func() {
		cfg := core.Config{
			Models:  models,
			SLO:     slo,
			Workers: workers,
			Arrival: dist.NewPoisson(1),
			D:       h.opts.D,
		}
		if mutate != nil {
			mutate(&cfg)
		}
		set := core.NewPolicySet(cfg, nil)
		missing := loads
		if h.opts.PolicyDir != "" {
			missing = h.loadCached(set, cfg, loads)
		}
		if len(missing) > 0 {
			if err := set.GenerateLoads(missing); err != nil {
				panic(fmt.Sprintf("experiments: policy generation failed: %v", err))
			}
			if h.opts.PolicyDir != "" {
				h.saveCached(set, cfg, missing)
			}
		}
		e.set = set
	})
	return e.set
}

func (h *Harness) policyPath(cfg core.Config, load float64) string {
	d := cfg.D
	if d == 0 {
		d = h.opts.D
	}
	return fmt.Sprintf("%s/%s_%dm%.0f_%dw_D%d_%s_%s_%s/%.0f.json",
		h.opts.PolicyDir, cfg.Models.Task, cfg.Models.Len(), cfg.SLO*1000,
		cfg.Workers, d, cfg.Batching, cfg.Disc, cfg.Balancing, load)
}

// loadCached pulls cached policies from disk, returning the loads still to
// generate. A file is input from outside the run: one generated under
// another balancing assumption counts as missing, not as this config's.
func (h *Harness) loadCached(set *core.PolicySet, cfg core.Config, loads []float64) []float64 {
	var missing []float64
	for _, load := range loads {
		p, err := core.LoadPolicy(h.policyPath(cfg, load), cfg.Models)
		if err != nil || p.Balancing != cfg.Balancing {
			missing = append(missing, load)
			continue
		}
		set.Insert(p)
	}
	return missing
}

func (h *Harness) saveCached(set *core.PolicySet, cfg core.Config, loads []float64) {
	for _, load := range loads {
		p, err := set.PolicyFor(load)
		if err != nil || p.Load != load {
			continue
		}
		_ = p.Save(h.policyPath(cfg, load))
	}
}

// msTable memoizes ModelSwitching's offline response-latency profile (§7:
// 400-4000 QPS on every resource configuration, 10 s per rung).
func (h *Harness) msTable(models profile.Set, slo float64, workers int) *baselines.MSTable {
	key := fmt.Sprintf("%s|%d|%.0f|%d", models.Task, models.Len(), slo*1000, workers)
	h.mu.Lock()
	e, ok := h.msTables[key]
	if !ok {
		e = &msEntry{}
		h.msTables[key] = e
	}
	h.mu.Unlock()
	e.once.Do(func() {
		step := 400.0
		switch h.scale() {
		case scaleFull:
			step = 100
		case scaleQuick:
			step = 800
		}
		e.table = baselines.ProfileModelSwitching(models, slo, workers, loadRange(400, 4400, step), 10, h.opts.Seed)
	})
	return e.table
}

// runSpec describes one simulation run.
type runSpec struct {
	models  profile.Set
	slo     float64
	workers int
	method  string
	tr      trace.Trace
	// oracle selects the perfect load predictor (§7.2); otherwise the
	// 500 ms moving average is used (§6).
	oracle bool
	// latency noise: nil means deterministic p95 (the simulator variant).
	latency sim.LatencyModel
	// ramsisLoads is the policy ladder for RAMSIS runs.
	ramsisLoads []float64
	// accTarget configures the INFaaS adaptation.
	accTarget float64
	seed      int64
	// variant + mutate select a non-default RAMSIS configuration; the
	// online balancer is the one its ladder was solved for (Appendix I).
	variant string
	mutate  func(*core.Config)
	// record enables the per-decision log.
	record bool
}

// run simulates one spec and returns its metrics.
func (h *Harness) run(s runSpec) sim.Metrics {
	var mon monitor.Monitor
	if s.oracle {
		mon = monitor.Oracle{Trace: s.tr}
	} else {
		mon = monitor.NewMovingAverage(0.5)
	}
	// RAMSIS balances over per-worker queues; each baseline is a selector
	// over the one central queue.
	var sched sim.Scheduler
	switch s.method {
	case MethodRAMSIS:
		set := h.policySet(s.models, s.slo, s.workers, s.ramsisLoads, s.variant, s.mutate)
		r := sim.NewRAMSIS(set, mon)
		r.LB = sim.BalancerFor(set.Policies()[0].Balancing, 1)
		sched = r
	case MethodJF:
		sched = sim.Scheme{Monitor: mon, Select: baselines.JellyfishPlus{Profiles: s.models, SLO: s.slo, Workers: s.workers}.Selector()}
	case MethodMS:
		sched = sim.Scheme{Monitor: mon, Select: baselines.ModelSwitching{Profiles: s.models, SLO: s.slo, Table: h.msTable(s.models, s.slo, s.workers)}.Selector()}
	case MethodGreedy:
		sched = sim.Scheme{Monitor: mon, Select: baselines.Greedy{Profiles: s.models, SLO: s.slo}.Select}
	case MethodINFaaS:
		sched = sim.Scheme{Monitor: mon, Select: baselines.INFaaSAdapted{Profiles: s.models, SLO: s.slo, Workers: s.workers, AccTarget: s.accTarget}.Selector()}
	default:
		panic("experiments: unknown method " + s.method)
	}
	lat := s.latency
	if lat == nil {
		lat = sim.Deterministic{}
	}
	seed := s.seed
	if seed == 0 {
		seed = h.opts.Seed
	}
	e := sim.NewEngine(s.models, s.slo, s.workers, lat, sched, seed)
	e.RecordDecisions = s.record
	return e.Run(trace.PoissonArrivals(s.tr, seed))
}

// runAll simulates every spec on a pool of GOMAXPROCS goroutines and
// returns metrics in spec order. Every run draws from its own seeded RNG
// streams and writes only its own slot, so the result is the same at any
// GOMAXPROCS. A panic in any run (policy generation, unknown method) is
// re-raised here once the other workers drain.
func (h *Harness) runAll(specs []runSpec) []sim.Metrics {
	out := make([]sim.Metrics, len(specs))
	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		panicMu  sync.Mutex
		panicked interface{}
	)
	for w := 0; w < min(runtime.GOMAXPROCS(0), len(specs)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panicMu.Lock()
					if panicked == nil {
						panicked = r
					}
					panicMu.Unlock()
				}
			}()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(specs) {
					return
				}
				out[i] = h.run(specs[i])
			}
		}()
	}
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
	return out
}

// arm is one compared configuration of a sweep: a label (the Series key and
// column heading) and the run it makes at grid value x.
type arm struct {
	label string
	at    func(x float64) runSpec
}

// constArm is the arm that runs s under a dur-second constant load of x
// QPS (constLoad).
func constArm(label string, dur float64, s runSpec) arm {
	return arm{label, func(x float64) runSpec { return constLoad(s, x, dur) }}
}

// constLoad fills s for a dur-second constant load of qps: the trace, the
// perfect load monitor (§7.2) and, for RAMSIS, the one-rung ladder at qps.
func constLoad(s runSpec, qps, dur float64) runSpec {
	s.tr = trace.Constant(qps, dur)
	s.oracle = true
	s.ramsisLoads = []float64{qps}
	return s
}

// sweep runs every arm at every x in one runAll, prints one row per x
// (xlabel heads the x column; each arm's accuracy, then each arm's
// violation rate), and returns the series keyed by arm label with the
// per-cell metrics, cells[xi][ai], for figures that derive more.
func (h *Harness) sweep(xlabel string, xs []float64, arms []arm) (Series, [][]sim.Metrics) {
	specs := make([]runSpec, 0, len(xs)*len(arms))
	for _, x := range xs {
		for _, a := range arms {
			specs = append(specs, a.at(x))
		}
	}
	mets := h.runAll(specs)

	widths := make([]int, len(arms))
	accWidth := -1
	for i, a := range arms {
		widths[i] = max(len(a.label), 8)
		accWidth += widths[i] + 1
	}
	h.printf("%10s  %-*s  %s\n", "", accWidth, "accuracy", "violation rate")
	h.printf("%10s ", xlabel)
	for i, a := range arms {
		h.printf(" %*s", widths[i], a.label)
	}
	h.printf(" ")
	for i, a := range arms {
		h.printf(" %*s", widths[i], a.label)
	}
	h.printf("\n")

	series := Series{}
	cells := make([][]sim.Metrics, len(xs))
	for xi, x := range xs {
		cells[xi] = mets[xi*len(arms) : (xi+1)*len(arms)]
		h.printf("%10.5g ", x)
		for i, m := range cells[xi] {
			series.add(Point{X: x, Method: arms[i].label,
				Accuracy: m.AccuracyPerSatisfiedQuery(), Violation: m.ViolationRate()})
			h.printf(" %*.4f", widths[i], m.AccuracyPerSatisfiedQuery())
		}
		h.printf(" ")
		for i, m := range cells[xi] {
			h.printf(" %*.5f", widths[i], m.ViolationRate())
		}
		h.printf("\n")
	}
	return series, cells
}

// Point is one (x, method) measurement in a figure's series.
type Point struct {
	X         float64
	Method    string
	Accuracy  float64
	Violation float64
	// Reported mirrors the paper's plotting rule: only points whose
	// violation rate is below 5% are included in accuracy figures.
	Reported bool
}

// Series groups points by method, sorted by X.
type Series map[string][]Point

func (s Series) add(p Point) {
	p.Reported = p.Violation < 0.05
	s[p.Method] = append(s[p.Method], p)
	sort.Slice(s[p.Method], func(i, j int) bool { return s[p.Method][i].X < s[p.Method][j].X })
}

// ladderFor builds the RAMSIS policy ladder covering a trace, in the
// artifact's style of fixed QPS rungs.
func (h *Harness) ladderFor(tr trace.Trace) []float64 {
	var step float64
	switch h.scale() {
	case scaleFull:
		step = 200
	case scaleQuick:
		step = 800
	default:
		step = 400
	}
	lo := step * float64(int(tr.MinQPS()/step))
	if lo < step {
		lo = step
	}
	// Head room above the trace peak: the 500 ms moving-average monitor
	// overshoots the interval mean during bursts.
	hi := tr.MaxQPS() * 1.15
	return loadRange(lo, hi+step, step)
}
