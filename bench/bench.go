// Package bench is the repository benchmark: four workloads that each drive
// the program from outside through its exported functions, five end-to-end
// metrics per workload, and a traced mode that yields per-layer metrics.
// BENCHMARK.json at the repository root names the command, workloads and
// metrics; README.md in this directory explains the design.
//
// What makes the numbers repeat on a two-core host (each rule answers a
// measured failure, see README.md):
//   - GOMAXPROCS is pinned to 2 and all load comes from the calling goroutine.
//   - Timing metrics are taken over repeated set-ups and passes after one
//     discarded, with a GC between: each is split into pieces of 0.1-0.3 s
//     and the reported time is the sum of every piece's fastest repetition
//     (see floorSum for the measurements behind that).
//   - Quality comes from virtual-time engines wherever one exists, so it
//     repeats to the last bit, and a run fails when two passes disagree.
//   - The live plane runs with zero-length inference, so no time.Sleep
//     (1 ms floor here) sits inside a measured interval.
//   - Inputs are drawn by the benchmark from the seed, sized by count, never
//     by elapsed time.
package bench

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"syscall"
	"time"
)

// Options selects one run.
type Options struct {
	Workload string
	Seed     int64
	// Seconds is how long the serve phase measures: passes repeat until it
	// has elapsed (and at least minTimedPasses were timed).
	Seconds float64
	// Trace makes the separate traced run that reports the per-layer
	// metrics instead of the end-to-end ones.
	Trace bool
	// TraceOut, when set on a traced run, receives the spans as JSONL.
	TraceOut string

	// smoke shrinks the run for the package's own tests: inputs at 1/50
	// size, coarse policies, one set-up and one timed pass.
	smoke bool
}

// Metric is one reported value.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the run's last line of output.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
	// Problems lists every failed validation (not part of the printed
	// result; the command writes it to standard error).
	Problems []string `json:"-"`
}

// pass is what one serve pass observed.
type pass struct {
	offered   int64   // queries the workload presented
	satisfied int64   // answered within their SLO
	accSum    float64 // profiled accuracy summed over satisfied queries
	errored   int64   // queries that returned an error or were refused
	// counts are layer counters read from the program's public outputs at
	// the pass boundary (sim.Metrics, Adapter.Stats, Gateway.Stats).
	counts   map[string]float64
	problems []string
}

func (p *pass) failf(format string, args ...any) {
	p.problems = append(p.problems, fmt.Sprintf(format, args...))
}

func (p *pass) attainment() float64 {
	if p.offered == 0 {
		return 0
	}
	return float64(p.satisfied) / float64(p.offered)
}

func (p *pass) accuracy() float64 {
	if p.satisfied == 0 {
		return 0
	}
	return p.accSum / float64(p.satisfied)
}

// workload is one benchmark scenario. The runner calls prepare once, then
// setUp/tearDown pairs (timed), then serve repeatedly on the last set-up.
type workload interface {
	// prepare derives every input from the seed. smoke asks for the tests'
	// 1/50 size.
	prepare(seed int64, smoke bool)
	// setUp builds everything between "nothing" and "ready for the first
	// query". It calls l.lap after each piece of work a later set-up
	// repeats identically (the runner adds a final lap itself).
	setUp(rec *recorder, l *laps) error
	// verify checks, once and untimed, invariants of what setUp built.
	verify() []string
	// serve runs one pass over the prepared inputs, calling l.lap after each
	// piece of 0.1-0.3 s that every pass repeats identically.
	serve(rec *recorder, l *laps) pass
	// tearDown releases what setUp built.
	tearDown()
	// exact reports whether quality comes from a virtual-time engine and
	// must therefore repeat bit for bit across passes.
	exact() bool
}

// Workloads lists the workload names in BENCHMARK.json order.
func Workloads() []string {
	return []string{"twitter_replay", "drift_resolve", "plane_burst", "llm_tokens"}
}

func newWorkload(name string) (workload, error) {
	switch name {
	case "twitter_replay":
		return &twitterReplay{}, nil
	case "drift_resolve":
		return &driftResolve{}, nil
	case "plane_burst":
		return &planeBurst{}, nil
	case "llm_tokens":
		return &llmTokens{}, nil
	}
	return nil, fmt.Errorf("bench: unknown workload %q (want one of %v)", name, Workloads())
}

const (
	// setupBudget bounds the set-up phase: after one discarded set-up,
	// timed set-ups repeat until maxSetups or, once minSetups are in, until
	// the budget is spent.
	setupBudget = 7 * time.Second
	minSetups   = 3
	maxSetups   = 9
	// minTimedPasses is the fewest serve passes a median is taken over.
	minTimedPasses = 3
)

// Run executes one workload and reports its metrics: the end-to-end set, or
// with Options.Trace the per-layer set.
func Run(o Options) (Result, error) {
	runtime.GOMAXPROCS(2)
	w, err := newWorkload(o.Workload)
	if err != nil {
		return Result{}, err
	}
	w.prepare(o.Seed, o.smoke)
	if o.Trace {
		return runTraced(w, o)
	}
	return runTimed(w, o)
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// laps times the pieces of one set-up or one serve pass: wall and CPU
// seconds between consecutive lap calls. A nil *laps times nothing.
type laps struct {
	wall, cpu []float64
	lastWall  time.Time
	lastCPU   float64
}

func startLaps() *laps {
	return &laps{lastWall: time.Now(), lastCPU: cpuSeconds()}
}

func (l *laps) lap() {
	if l == nil {
		return
	}
	now, cpu := time.Now(), cpuSeconds()
	l.wall = append(l.wall, now.Sub(l.lastWall).Seconds())
	l.cpu = append(l.cpu, cpu-l.lastCPU)
	l.lastWall, l.lastCPU = now, cpu
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// timedSetups runs the set-up phase and leaves the last set-up standing.
// The first set-up is discarded (cold code, cold heap); the rest are timed
// and returned as wall-second laps per set-up. once asks for a single,
// undiscarded set-up (traced runs and smoke tests).
func timedSetups(w workload, rec *recorder, once bool) ([][]float64, error) {
	var timed [][]float64
	deadline := time.Now().Add(setupBudget)
	for i := 0; ; i++ {
		runtime.GC()
		l := startLaps()
		if err := w.setUp(rec, l); err != nil {
			return nil, err
		}
		l.lap()
		if i > 0 || once {
			timed = append(timed, l.wall)
		}
		if once || len(timed) >= maxSetups || (len(timed) >= minSetups && time.Now().After(deadline)) {
			return timed, nil
		}
		w.tearDown()
	}
}

// timedPass runs one serve pass and returns it with its laps.
func timedPass(w workload, rec *recorder) (pass, *laps) {
	runtime.GC()
	l := startLaps()
	p := w.serve(rec, l)
	l.lap()
	return p, l
}

// tally folds passes into the run's attempted/failed/problem totals and
// enforces the rules every workload shares.
type tally struct {
	attempted, failed int64
	problems          []string
	first             *pass
}

// newTally starts a run's tally with the workload's one-off verification of
// what setUp built.
func newTally(w workload) *tally {
	t := &tally{}
	for _, msg := range w.verify() {
		t.problems = append(t.problems, "verify: "+msg)
	}
	return t
}

func (t *tally) add(k int, p pass, exact bool) {
	t.attempted += p.offered
	t.failed += p.errored
	if p.offered <= 0 {
		p.failf("pass offered no queries")
	}
	if p.satisfied > p.offered {
		p.failf("satisfied %d exceeds offered %d", p.satisfied, p.offered)
	}
	if t.first == nil {
		first := p
		t.first = &first
	} else if exact {
		f := t.first
		if p.offered != f.offered || p.satisfied != f.satisfied ||
			math.Float64bits(p.accSum) != math.Float64bits(f.accSum) {
			p.failf("quality differs from pass 0: offered %d/%d satisfied %d/%d accSum %x/%x",
				p.offered, f.offered, p.satisfied, f.satisfied,
				math.Float64bits(p.accSum), math.Float64bits(f.accSum))
		}
	}
	for _, msg := range p.problems {
		t.problems = append(t.problems, fmt.Sprintf("pass %d: %s", k, msg))
	}
}

func (t *tally) result(metrics map[string]Metric) Result {
	failed := t.failed + int64(len(t.problems))
	return Result{
		Correct:   failed == 0,
		Attempted: t.attempted,
		Failed:    failed,
		Metrics:   metrics,
		Problems:  t.problems,
	}
}

// runTimed is the untraced run behind the end-to-end metrics.
func runTimed(w workload, o Options) (Result, error) {
	setups, err := timedSetups(w, nil, o.smoke)
	if err != nil {
		return Result{}, err
	}
	defer w.tearDown()

	t := newTally(w)

	// Pass 0 warms code and heap and is not timed (the first call in a
	// process runs 1.5-2x slower); its quality counts like any other's.
	var walls, cpus [][]float64
	var pooled pass
	begin := time.Now()
	for k := 0; ; k++ {
		p, l := timedPass(w, nil)
		t.add(k, p, w.exact())
		if k > 0 || o.smoke {
			walls, cpus = append(walls, l.wall), append(cpus, l.cpu)
			pooled.offered += p.offered
			pooled.satisfied += p.satisfied
			pooled.accSum += p.accSum
		}
		if o.smoke || (len(walls) >= minTimedPasses && time.Since(begin).Seconds() >= o.Seconds) {
			break
		}
	}
	quality := &pooled
	if w.exact() {
		quality = t.first
	}
	// Every pass offers the same queries, so the first pass's count
	// normalizes any of them.
	perQuery := 1e6 / float64(t.first.offered)
	setup, ok1 := floorSum(setups)
	wall, ok2 := floorSum(walls)
	cpu, ok3 := floorSum(cpus)
	if !ok1 || !ok2 || !ok3 {
		t.problems = append(t.problems, "repetitions differ in their number of laps")
	}
	return t.result(map[string]Metric{
		"setup_s":           {setup, "s"},
		"slo_attainment":    {quality.attainment(), "share"},
		"accuracy":          {quality.accuracy(), "share"},
		"wall_us_per_query": {wall * perQuery, "us"},
		"cpu_us_per_query":  {cpu * perQuery, "us"},
	}), nil
}

// runTraced is the separate traced run behind the per-layer metrics: one
// set-up, a discarded pass, three untraced passes (their spread is
// bench.pass_iqr_pct), one traced pass (its excess over the untraced median
// is bench.trace_overhead_pct), then the layer probes.
func runTraced(w workload, o Options) (Result, error) {
	rec := newRecorder(o.Workload)
	lm := newLayerMetrics()
	calibrate(rec, lm, o.smoke)

	id := rec.begin("setup")
	_, err := timedSetups(w, rec, true)
	rec.end(id)
	if err != nil {
		return Result{}, err
	}
	t := newTally(w)

	untraced := 3
	if o.smoke {
		untraced = 1
	}
	var walls, cpus []float64
	for k := 0; k <= untraced; k++ {
		p, l := timedPass(w, nil)
		t.add(k, p, w.exact())
		if k > 0 {
			walls = append(walls, sum(l.wall)*1e6/float64(p.offered))
			cpus = append(cpus, sum(l.cpu)*1e6/float64(p.offered))
		}
	}

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	rec.setPass(untraced + 1)
	id = rec.begin("pass")
	start := time.Now()
	p := w.serve(rec, nil)
	tracedWall := time.Since(start).Seconds() * 1e6 / float64(p.offered)
	rec.end(id)
	runtime.ReadMemStats(&after)
	t.add(untraced+1, p, w.exact())
	w.tearDown()

	for name, v := range p.counts {
		lm.set(name, v)
	}
	q := float64(p.offered)
	lm.set("runtime.allocs_per_query", float64(after.Mallocs-before.Mallocs)/q)
	lm.set("runtime.alloc_bytes_per_query", float64(after.TotalAlloc-before.TotalAlloc)/q)
	lm.set("runtime.heap_peak_mb", float64(after.HeapSys)/1e6)
	lm.set("runtime.gc_pause_ms", float64(after.PauseTotalNs-before.PauseTotalNs)/1e6)
	lm.set("runtime.goroutines_after_stop", float64(settledGoroutines()))
	lm.set("bench.pass_iqr_pct", 100*math.Max(spread(walls), spread(cpus)))
	lm.set("bench.trace_overhead_pct", 100*(tracedWall-median(walls))/median(walls))

	probeLayers(rec, lm, o.Seed, o.smoke)

	// The share of the traced pass spent in the benchmark's own code, not
	// inside a call into the program: the harness cost every wall and CPU
	// figure carries.
	self := selfTimes(rec.spans)
	lm.set("bench.harness_self_pct", 100*self["pass"].Seconds()/(tracedWall*q/1e6))

	if o.TraceOut != "" {
		if err := writeSpans(rec, o.TraceOut); err != nil {
			return Result{}, err
		}
	}
	t.problems = append(t.problems, lm.problems...)
	return t.result(lm.metrics), nil
}

func writeSpans(rec *recorder, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := rec.writeJSONL(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// settledGoroutines waits briefly for stopped servers' connection
// goroutines to exit and returns how many goroutines remain.
func settledGoroutines() int {
	n := runtime.NumGoroutine()
	for i := 0; i < 50 && n > 1; i++ {
		time.Sleep(2 * time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

// layerMetrics collects the traced run's per-layer metrics. Every declared
// metric (perLayer) is reported on every workload: layers a workload does not
// touch read 0 there, which is itself the claim ("mdp does no work in
// plane_burst") a later change is checked against.
type layerMetrics struct {
	metrics  map[string]Metric
	problems []string
}

func newLayerMetrics() *layerMetrics {
	lm := &layerMetrics{metrics: make(map[string]Metric, len(perLayer))}
	for _, m := range perLayer {
		lm.metrics[m.Name] = Metric{0, m.Unit}
	}
	return lm
}

// set records a value under a declared name; the unit comes from the
// declaration.
func (lm *layerMetrics) set(name string, v float64) {
	unit, ok := perLayerUnits[name]
	if !ok {
		lm.failf("metric %s is not declared", name)
		return
	}
	lm.metrics[name] = Metric{v, unit}
}

func (lm *layerMetrics) failf(format string, args ...any) {
	lm.problems = append(lm.problems, fmt.Sprintf(format, args...))
}
