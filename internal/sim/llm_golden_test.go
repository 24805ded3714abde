package sim

import (
	"cmp"
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"ramsis/internal/admit"
	"ramsis/internal/core"
	"ramsis/internal/lb"
	"ramsis/internal/llm"
	"ramsis/internal/telemetry"
	"ramsis/internal/trace"
)

// poissonTokenWorkload is a general-class Poisson stream: rate queries per
// second for dur seconds.
func poissonTokenWorkload(rate, dur float64, seed int64) []TokenQuery {
	cls := llm.GeneralClass()
	rng := rand.New(rand.NewSource(seed))
	var arrivals []float64
	for t := rng.ExpFloat64() / rate; t < dur; t += rng.ExpFloat64() / rate {
		arrivals = append(arrivals, t)
	}
	events := trace.AnnotateTokens(arrivals, seed, cls.In, cls.Out)
	queries := make([]TokenQuery, len(events))
	for i, ev := range events {
		queries[i] = TokenQuery{ID: i + 1, Arrival: ev.T, Prefill: ev.Prefill, Decode: ev.Decode}
	}
	return queries
}

// llmGolden folds token runs into one FNV-64a.
type llmGolden struct{ buf []byte }

func (g *llmGolden) ints(xs ...int) {
	for _, x := range xs {
		g.buf = binary.LittleEndian.AppendUint64(g.buf, uint64(int64(x)))
	}
}

func (g *llmGolden) floats(xs ...float64) {
	for _, x := range xs {
		g.buf = binary.LittleEndian.AppendUint64(g.buf, math.Float64bits(x))
	}
}

func (g *llmGolden) sum() uint64 {
	h := fnv.New64a()
	h.Write(g.buf)
	return h.Sum64()
}

// run hashes one token run and returns its metrics: every query's trace in
// ID order (worker, latency, the batch-wait / prefill / decode spans, and
// whether it was turned away), the tallies and the batchers' totals, the
// TTFT histogram whole, and the TBT observations as a multiset — sorted
// bits, the histogram's count and quantiles, not its sum, whose last bits
// depend on how the workers' tokens interleave.
func (g *llmGolden) run(e *LLMEngine, queries []TokenQuery) LLMMetrics {
	traces := telemetry.NewTraceBuffer(len(queries))
	e.Traces, e.CollectLatencies = traces, true
	m := e.Run(queries)
	qt := traces.Snapshot()
	slices.SortFunc(qt, func(a, b telemetry.QueryTrace) int { return cmp.Compare(a.ID, b.ID) })
	g.ints(len(qt))
	for _, q := range qt {
		rejected := 0
		if q.Error != "" {
			rejected = 1
		}
		g.ints(q.ID, q.Worker, rejected, q.Batch)
		g.floats(q.LatencyMS)
		for _, sp := range q.Spans {
			g.floats(sp.Seconds)
		}
	}
	g.ints(m.Served, m.Violations, m.Dropped, m.Shed, m.Unserved)
	g.ints(m.Steps, m.ModelSwitches, int(m.PrefillTokens), int(m.DecodeTokens))
	g.floats(m.PeakKVUsage, m.SatAccSum, m.LatencyP50, m.LatencyP95, m.LatencyP99)
	names := make([]string, 0, len(m.ModelCounts))
	for name := range m.ModelCounts {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		g.buf = append(g.buf, name...)
		g.ints(m.ModelCounts[name])
	}
	tbts := slices.Clone(m.TBTs)
	slices.Sort(tbts)
	g.ints(len(m.TTFTs), len(tbts))
	g.floats(m.TTFTs...)
	g.floats(tbts...)
	g.floats(m.TTFTP50, m.TTFTP95, m.TTFTP99, m.TBTP50, m.TBTP95, m.TBTP99)
	g.ints(int(e.ttftHist.Count()), int(e.tbtHist.Count()))
	g.floats(e.ttftHist.Sum())
	for p := 0.0; p <= 100; p += 2.5 {
		g.floats(e.ttftHist.Quantile(p), e.tbtHist.Quantile(p))
	}
	return m
}

// goldenCells returns one engine per TestLLMEngineGolden cell of a selector
// row: {1, 2, 3} workers × the default JSQ and a P2C balancer × the
// profiles' KV capacity and a 3,000-token one.
func goldenCells(models llm.Set, slo float64, sel ModelSelector) []*LLMEngine {
	var cells []*LLMEngine
	for workers := 1; workers <= 3; workers++ {
		for _, p2c := range []bool{false, true} {
			for _, kvCap := range []int{0, 3000} {
				e := NewLLMEngine(models, slo, workers, sel)
				if p2c {
					e.Sched = Scheme{Balancer: lb.NewPowerOfTwoChoices(int64(workers))}
				}
				e.KVCap = kvCap
				cells = append(cells, e)
			}
		}
	}
	return cells
}

// TestLLMEngineGolden pins the token engine end to end against constants
// captured before token workers landed decode runs inside Batcher.Begin: two
// workloads (burstWorkload and a general-class Poisson stream) under a fixed,
// a model-switching and a token-policy selector, each row folding {1, 2, 3}
// workers × the default JSQ and a P2C balancer × the profiles' KV capacity
// and a 3,000-token one, plus one row under a cap on outstanding queries. A
// change to when a step starts, what it holds, what it costs or which tokens
// it lands shows here; the cross-worker order of TBT observations does not.
func TestLLMEngineGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		// The constants depend on every rounding step; architectures where
		// the compiler fuses multiply-adds round differently.
		t.Skipf("golden constants were captured on amd64, not %s", runtime.GOARCH)
	}
	models := llm.BuiltinSet()
	cls := llm.GeneralClass()
	const slo = 8.0
	pol, err := core.GenerateLLM(core.LLMConfig{
		Models: models, SLO: slo, Workers: 2, Rate: 4,
		In: cls.In, Out: cls.Out,
		TokenBucket: 128, MaxTokens: 8192,
	})
	if err != nil {
		t.Fatal(err)
	}
	policy, err := NewLLMPolicySelector(pol, models)
	if err != nil {
		t.Fatal(err)
	}
	workloads := []struct {
		name    string
		queries []TokenQuery
	}{
		{"burst", burstWorkload()},
		{"poisson", poissonTokenWorkload(6, 40, 3)},
	}
	selectors := []struct {
		name string
		sel  ModelSelector
	}{
		{"fixed", FixedSelector(models.Fastest())},
		{"ladder", tokenLadder{fast: models.Fastest(), accurate: models.MostAccurate(), limit: 3000}},
		{"policy", policy},
	}
	want := map[string]uint64{
		"burst/fixed":    0xe80c640226c6130a,
		"burst/ladder":   0x629094330b0bd651,
		"burst/policy":   0x0498e8c879db58c1,
		"poisson/fixed":  0x5d28fe9c1f1e6ef8,
		"poisson/ladder": 0xb425256513d3046e,
		"poisson/policy": 0xd823c71f9dc5d78f,
		"burst/cap":      0x3747938c72a3358a,
	}
	got := map[string]uint64{}
	for _, wl := range workloads {
		for _, sc := range selectors {
			var g llmGolden
			for _, e := range goldenCells(models, slo, sc.sel) {
				g.run(e, wl.queries)
			}
			got[wl.name+"/"+sc.name] = g.sum()
		}
	}
	var g llmGolden
	e := NewLLMEngine(models, slo, 2, policy)
	e.Admit = admit.Cap{Limit: 6}
	g.run(e, workloads[0].queries)
	got["burst/cap"] = g.sum()

	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s: golden hash %#016x, want %#016x", name, got[name], w)
		}
	}
}

// rangeHidden passes every consult on to its selector but reports no
// range, so its batcher asks at every step boundary.
type rangeHidden struct{ ModelSelector }

// TestLLMRangeSelectorMatchesEveryBoundary pins the batcher's kept answers
// to consulting at every boundary: each of TestLLMEngineGolden's
// token-policy cells, the admission-capped one included, run once with the
// policy selector, which reports its bucket as its answer's range, and once
// behind rangeHidden, must hash the same (per-query traces, counts, PeakKV,
// the TTFT and TBT histograms), return the same LLMMetrics with the TTFT and
// TBT observation sequences equal to the bit, and consult fewer times.
func TestLLMRangeSelectorMatchesEveryBoundary(t *testing.T) {
	models := llm.BuiltinSet()
	cls := llm.GeneralClass()
	const slo = 8.0
	pol, err := core.GenerateLLM(core.LLMConfig{
		Models: models, SLO: slo, Workers: 2, Rate: 4,
		In: cls.In, Out: cls.Out,
		TokenBucket: 128, MaxTokens: 8192,
	})
	if err != nil {
		t.Fatal(err)
	}
	policy, err := NewLLMPolicySelector(pol, models)
	if err != nil {
		t.Fatal(err)
	}
	capped := func(sel ModelSelector) *LLMEngine {
		e := NewLLMEngine(models, slo, 2, sel)
		e.Admit = admit.Cap{Limit: 6}
		return e
	}
	bits := func(xs []float64) []uint64 {
		out := make([]uint64, len(xs))
		for i, x := range xs {
			out[i] = math.Float64bits(x)
		}
		return out
	}
	for _, wl := range []struct {
		name    string
		queries []TokenQuery
	}{
		{"burst", burstWorkload()},
		{"poisson", poissonTokenWorkload(6, 40, 3)},
	} {
		kept := append(goldenCells(models, slo, policy), capped(policy))
		asked := append(goldenCells(models, slo, rangeHidden{policy}), capped(rangeHidden{policy}))
		var keptConsults, askedConsults int
		for i := range kept {
			var gk, ga llmGolden
			mk, ma := gk.run(kept[i], wl.queries), ga.run(asked[i], wl.queries)
			if gk.sum() != ga.sum() {
				t.Errorf("%s cell %d: golden hash %#016x with ranges, %#016x consulting every boundary", wl.name, i, gk.sum(), ga.sum())
			}
			if !slices.Equal(bits(mk.TTFTs), bits(ma.TTFTs)) || !slices.Equal(bits(mk.TBTs), bits(ma.TBTs)) {
				t.Errorf("%s cell %d: TTFT or TBT observation sequences differ", wl.name, i)
			}
			if ma.Consults < ma.Steps {
				t.Errorf("%s cell %d: %d consults over %d steps behind rangeHidden, want one per boundary", wl.name, i, ma.Consults, ma.Steps)
			}
			keptConsults += mk.Consults
			askedConsults += ma.Consults
			mk.Consults, ma.Consults = 0, 0
			if !reflect.DeepEqual(mk, ma) {
				t.Errorf("%s cell %d: metrics differ:\nranges %+v\nevery boundary %+v", wl.name, i, mk, ma)
			}
		}
		if !(keptConsults < askedConsults) {
			t.Errorf("%s: %d consults with ranges, %d at every boundary: no answer was kept", wl.name, keptConsults, askedConsults)
		}
		t.Logf("%s: %d consults with ranges, %d at every boundary", wl.name, keptConsults, askedConsults)
	}
}
