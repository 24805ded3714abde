package sim

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"ramsis/internal/admit"
	"ramsis/internal/core"
	"ramsis/internal/dist"
	"ramsis/internal/llm"
	"ramsis/internal/telemetry"
	"ramsis/internal/tenant"
	"ramsis/internal/trace"
)

// TestLLMStepMathSingleQuery walks one query through the step loop by hand:
// E2E latency must equal the sum of the steps it rides through, TTFT the
// prefill step, and each TBT one decode step.
func TestLLMStepMathSingleQuery(t *testing.T) {
	models := llm.BuiltinSet()
	m := models.Models[0] // chat-8b
	e := NewLLMEngine(models, 6.0, 1, FixedSelector(0))
	e.CollectLatencies = true
	got := e.Run([]TokenQuery{{ID: 1, Arrival: 0, Prefill: 1000, Decode: 3}})

	// Step 1: the whole prefill fits the 2048 budget; kv 0 at schedule time.
	tau1 := m.StepTime(1000, 0, 0)
	// Prefill lands 1000 tokens plus the first output token.
	tau2 := m.StepTime(0, 1, 1001.0/float64(m.KVCapTokens))
	tau3 := m.StepTime(0, 1, 1002.0/float64(m.KVCapTokens))
	want := tau1 + tau2 + tau3

	if got.Served != 1 || got.Violations != 0 {
		t.Fatalf("served %d violations %d", got.Served, got.Violations)
	}
	if got.Steps != 3 {
		t.Fatalf("steps = %d, want 3", got.Steps)
	}
	if math.Abs(got.Latencies[0]-want) > 1e-12 {
		t.Errorf("latency %v, want %v", got.Latencies[0], want)
	}
	if len(got.TTFTs) != 1 || math.Abs(got.TTFTs[0]-tau1) > 1e-12 {
		t.Errorf("TTFT %v, want %v", got.TTFTs, tau1)
	}
	if len(got.TBTs) != 2 || math.Abs(got.TBTs[0]-tau2) > 1e-12 || math.Abs(got.TBTs[1]-tau3) > 1e-12 {
		t.Errorf("TBTs %v, want [%v %v]", got.TBTs, tau2, tau3)
	}
	if got.PrefillTokens != 1000 || got.DecodeTokens != 2 {
		t.Errorf("scheduled %d prefill / %d decode tokens, want 1000 / 2", got.PrefillTokens, got.DecodeTokens)
	}
	if got.AccuracyPerSatisfiedQuery() != m.Accuracy {
		t.Errorf("accuracy %v, want %v", got.AccuracyPerSatisfiedQuery(), m.Accuracy)
	}
}

// TestLLMKVGatingAndOversizeDrop pins admission gating: a query that fits
// only after the running batch releases its reservation waits; one that can
// never fit the cache is dropped, not deadlocked on.
func TestLLMKVGatingAndOversizeDrop(t *testing.T) {
	models := llm.BuiltinSet()
	traces := telemetry.NewTraceBuffer(16)
	e := NewLLMEngine(models, 60.0, 1, FixedSelector(0))
	e.KVCap = 2000
	e.Traces = traces
	got := e.Run([]TokenQuery{
		{ID: 1, Arrival: 0, Prefill: 1400, Decode: 100}, // 1500 tokens
		{ID: 2, Arrival: 0, Prefill: 900, Decode: 100},  // 1000: waits for q1
		{ID: 3, Arrival: 0, Prefill: 3000, Decode: 100}, // 3100 > cap: dropped
	})
	if got.Served != 2 {
		t.Fatalf("served %d, want 2", got.Served)
	}
	if got.Dropped != 1 {
		t.Fatalf("dropped %d, want 1 (oversize query)", got.Dropped)
	}
	var q1Done, q2Admit float64
	sawDrop := false
	for _, qt := range traces.Snapshot() {
		switch qt.ID {
		case 1:
			q1Done = qt.Arrival + qt.LatencyMS/1000
		case 2:
			for _, sp := range qt.Spans {
				if sp.Stage == telemetry.StageBatchWait {
					q2Admit = qt.Arrival + sp.Seconds
				}
			}
		case 3:
			sawDrop = qt.Error == "kv-oversize"
		}
	}
	if !sawDrop {
		t.Error("oversize query left no kv-oversize trace")
	}
	if !(q2Admit > 0) {
		t.Errorf("q2 admitted at %v; the KV reservation should have gated it", q2Admit)
	}
	if math.Abs(q2Admit-q1Done) > 1e-9 {
		t.Errorf("q2 admitted at %v, want at q1's completion %v", q2Admit, q1Done)
	}
	if !(got.PeakKVUsage > 0.7) {
		t.Errorf("peak KV usage %v suspiciously low for a gated run", got.PeakKVUsage)
	}
}

// TestLLMContinuousBatchingJoinsMidStream pins the defining property of
// continuous batching: a later arrival joins the running batch while an
// earlier query is still decoding, instead of waiting for it to finish.
func TestLLMContinuousBatchingJoinsMidStream(t *testing.T) {
	models := llm.BuiltinSet()
	traces := telemetry.NewTraceBuffer(16)
	e := NewLLMEngine(models, 60.0, 1, FixedSelector(0))
	e.Traces = traces
	got := e.Run([]TokenQuery{
		{ID: 1, Arrival: 0, Prefill: 100, Decode: 50},
		{ID: 2, Arrival: 0.05, Prefill: 100, Decode: 5},
	})
	if got.Served != 2 {
		t.Fatalf("served %d, want 2", got.Served)
	}
	var q1Done, q2Admit float64
	for _, qt := range traces.Snapshot() {
		switch qt.ID {
		case 1:
			q1Done = qt.Arrival + qt.LatencyMS/1000
		case 2:
			for _, sp := range qt.Spans {
				if sp.Stage == telemetry.StageBatchWait {
					q2Admit = qt.Arrival + sp.Seconds
				}
			}
		}
	}
	if !(q2Admit < q1Done) {
		t.Errorf("q2 admitted at %v, after q1 finished at %v — batch never joined mid-stream", q2Admit, q1Done)
	}
}

// scriptSelector asks for model 0 on its first consult and model 2 forever
// after — forcing one immediate switch and one drain-gated switch.
type scriptSelector struct{ calls int }

func (s *scriptSelector) SelectModel(int, int, float64, float64) int {
	s.calls++
	if s.calls == 1 {
		return 0
	}
	return 2
}

// TestLLMModelSwitchDrainsRunningBatch pins switch semantics: with an empty
// running batch the switch is immediate; with sequences in flight the worker
// drains (admitting nothing) and switches when the batch empties.
func TestLLMModelSwitchDrainsRunningBatch(t *testing.T) {
	models := llm.BuiltinSet()
	e := NewLLMEngine(models, 60.0, 1, &scriptSelector{})
	got := e.Run([]TokenQuery{
		{ID: 1, Arrival: 0, Prefill: 10, Decode: 30},
		{ID: 2, Arrival: 0.001, Prefill: 10, Decode: 5},
	})
	if got.Served != 2 {
		t.Fatalf("served %d, want 2", got.Served)
	}
	// Switch 1: most-accurate default -> model 0 before any admission.
	// Switch 2: model 0 -> model 2 once q1's batch drained.
	if got.ModelSwitches != 2 {
		t.Fatalf("model switches = %d, want 2", got.ModelSwitches)
	}
	if got.ModelCounts["chat-8b"] != 1 || got.ModelCounts["chat-72b"] != 1 {
		t.Fatalf("model counts %v, want one query each on chat-8b and chat-72b", got.ModelCounts)
	}
}

// TestLLMTelemetryExposition checks the run's series land in the registry
// under the canonical names, TTFT/TBT histograms included, and that the
// registry stays honest: the batchers and the dispatch core share the query
// series, so a token run must count each query once and register no series
// it never moves (the family list is the token engine's before it ran on
// sim.Engine's loop).
func TestLLMTelemetryExposition(t *testing.T) {
	models := llm.BuiltinSet()
	reg := telemetry.NewRegistry()
	e := NewLLMEngine(models, 6.0, 2, FixedSelector(0))
	e.Telemetry = reg
	got := e.Run([]TokenQuery{
		{ID: 1, Arrival: 0, Prefill: 200, Decode: 20},
		{ID: 2, Arrival: 0.01, Prefill: 300, Decode: 10},
	})
	if got.Served != 2 {
		t.Fatalf("served %d, want 2", got.Served)
	}
	var b strings.Builder
	reg.WritePrometheus(&b)
	var families []string
	for _, l := range strings.Split(b.String(), "\n") {
		if name, ok := strings.CutPrefix(l, "# TYPE "); ok {
			families = append(families, strings.Fields(name)[0])
		}
	}
	want := []string{
		"ramsis_llm_kv_usage", "ramsis_llm_model_switches_total", "ramsis_llm_step_seconds",
		"ramsis_llm_steps_total", "ramsis_llm_tbt_seconds", "ramsis_llm_tokens_total",
		"ramsis_llm_ttft_seconds", "ramsis_model_queries_total", "ramsis_queries_total",
		"ramsis_query_latency_seconds", "ramsis_satisfied_accuracy_sum", "ramsis_slo_violations_total",
		"ramsis_stage_seconds",
	}
	slices.Sort(families)
	if !slices.Equal(families, want) {
		t.Errorf("exposition families\n%q\nwant\n%q", families, want)
	}
	if q := reg.Counter(telemetry.MetricQueries).Value(); int(q) != got.Served {
		t.Errorf("%s = %v, served %d", telemetry.MetricQueries, q, got.Served)
	}
	steps := 0.0
	for _, m := range models.Models {
		steps += reg.CounterVec(telemetry.MetricLLMSteps, "model").With(m.Name).Value()
	}
	if int(steps) != got.Steps {
		t.Errorf("Σ %s = %v, steps %d", telemetry.MetricLLMSteps, steps, got.Steps)
	}
	if !(got.TTFTP50 > 0) || !(got.TBTP50 > 0) {
		t.Errorf("TTFT p50 %v / TBT p50 %v not populated", got.TTFTP50, got.TBTP50)
	}
}

// burstWorkload builds the acceptance scenario: a steady general-class load
// with a long-prefill codegen burst riding on top, at identical offered
// load for every policy under test.
func burstWorkload() []TokenQuery {
	cls := llm.GeneralClass()
	rng := rand.New(rand.NewSource(7))
	var arrivals []float64
	for t := rng.ExpFloat64() / 4; t < 60; t += rng.ExpFloat64() / 4 {
		arrivals = append(arrivals, t)
	}
	events := trace.AnnotateTokens(arrivals, 11, cls.In, cls.Out)
	queries := make([]TokenQuery, 0, len(events)+12)
	for i, ev := range events {
		queries = append(queries, TokenQuery{ID: i + 1, Arrival: ev.T, Prefill: ev.Prefill, Decode: ev.Decode})
	}
	// The burst: a dozen codegen-style arrivals, each carrying ~4k prompt
	// tokens. The queue grows by only 12 queries — unremarkable to a
	// queue-length policy — while the outstanding token load jumps by ~50k.
	for i := 0; i < 12; i++ {
		queries = append(queries, TokenQuery{
			ID: len(events) + i + 1, Arrival: 20 + 0.1*float64(i),
			Prefill: 4000, Decode: 150,
		})
	}
	return queries
}

// TestLLMTokenAwarePolicyBeatsScalarOnPrefillBurst is the PR's acceptance
// scenario: at equal offered load, the token-aware policy must achieve
// strictly higher SLO attainment than the scalar-profile policy on a
// long-prefill burst. The burst's 40 queries carry ~3200 tokens each, so
// the outstanding token load explodes while the queue length stays
// unremarkable — the scalar policy keeps serving large models and drowns,
// the token-aware policy sees the token backlog and downshifts.
func TestLLMTokenAwarePolicyBeatsScalarOnPrefillBurst(t *testing.T) {
	models := llm.BuiltinSet()
	cls := llm.GeneralClass()
	const slo, rate, workers = 8.0, 4.0, 1

	tokenPol, err := core.GenerateLLM(core.LLMConfig{
		Models: models, SLO: slo, Workers: workers, Rate: rate,
		In: cls.In, Out: cls.Out,
	})
	if err != nil {
		t.Fatal(err)
	}
	tokenSel, err := NewLLMPolicySelector(tokenPol, models)
	if err != nil {
		t.Fatal(err)
	}
	scalarPol, err := core.Generate(core.Config{
		Models:  models.ScalarProfiles(cls.In.MeanLen(), cls.Out.MeanLen(), 0),
		SLO:     slo,
		Workers: workers,
		Arrival: dist.NewPoisson(rate),
		// The baseline's run is the same at the default D = 100 (0.355
		// attainment, 211 / 20 queries on chat-8b / chat-72b) for 5 s of
		// generation instead of 0.3: 135 s against 8 under the race detector.
		D: 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	scalarSel, err := NewScalarPolicySelector(scalarPol, models)
	if err != nil {
		t.Fatal(err)
	}

	queries := burstWorkload()
	run := func(sel ModelSelector) LLMMetrics {
		e := NewLLMEngine(models, slo, workers, sel)
		e.CollectLatencies = true
		return e.Run(queries)
	}
	token := run(tokenSel)
	scalar := run(scalarSel)

	tokenAtt := 1 - token.ViolationRate()
	scalarAtt := 1 - scalar.ViolationRate()
	t.Logf("token-aware: attainment %.3f acc %.3f switches %d models %v",
		tokenAtt, token.AccuracyPerSatisfiedQuery(), token.ModelSwitches, token.ModelCounts)
	t.Logf("scalar:      attainment %.3f acc %.3f switches %d models %v",
		scalarAtt, scalar.AccuracyPerSatisfiedQuery(), scalar.ModelSwitches, scalar.ModelCounts)
	if !(tokenAtt > scalarAtt) {
		t.Fatalf("token-aware attainment %.4f not strictly above scalar %.4f", tokenAtt, scalarAtt)
	}
	if token.Served+token.Dropped != len(queries) || scalar.Served+scalar.Dropped != len(queries) {
		t.Fatalf("offered load mismatch: token %d+%d, scalar %d+%d, want %d",
			token.Served, token.Dropped, scalar.Served, scalar.Dropped, len(queries))
	}
}

// seriesLines returns the exposition's _bucket, _sum and _count lines of the
// histogram family name.
func seriesLines(reg *telemetry.Registry, name string) []string {
	var b strings.Builder
	reg.WritePrometheus(&b)
	var lines []string
	for _, l := range strings.Split(b.String(), "\n") {
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if strings.HasPrefix(l, name+suffix+" ") || strings.HasPrefix(l, name+suffix+"{") {
				lines = append(lines, l)
			}
		}
	}
	return lines
}

// TestLLMGapHistogramsMatchPerToken pins llm.ObserveGaps end to end: the
// step loop records TBT once per run of equal gaps, yet the engine's TTFT
// and TBT histograms and the registry's ramsis_llm_ttft_seconds /
// ramsis_llm_tbt_seconds series must equal histograms fed one Observe per
// collected token — counts, quantiles and the sum, to the bit.
func TestLLMGapHistogramsMatchPerToken(t *testing.T) {
	models := llm.BuiltinSet()
	cls := llm.GeneralClass()
	const slo, workers = 8.0, 2
	pol, err := core.GenerateLLM(core.LLMConfig{
		Models: models, SLO: slo, Workers: workers, Rate: 4,
		In: cls.In, Out: cls.Out,
	})
	if err != nil {
		t.Fatal(err)
	}
	tokenSel, err := NewLLMPolicySelector(pol, models)
	if err != nil {
		t.Fatal(err)
	}
	queries := burstWorkload()
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for name, sel := range map[string]ModelSelector{"fixed": FixedSelector(models.Fastest()), "token": tokenSel} {
		e := NewLLMEngine(models, slo, workers, sel)
		e.CollectLatencies = true
		e.Telemetry = telemetry.NewRegistry()
		m := e.Run(queries)
		ref := telemetry.NewRegistry()
		for _, tc := range []struct {
			metric string
			xs     []float64
			got    *telemetry.Histogram
		}{
			{telemetry.MetricLLMTTFT, m.TTFTs, e.ttftHist},
			{telemetry.MetricLLMTBT, m.TBTs, e.tbtHist},
		} {
			want := ref.Histogram(tc.metric)
			for _, x := range tc.xs {
				want.Observe(x)
			}
			if len(tc.xs) == 0 || tc.got.Count() != want.Count() || !same(tc.got.Sum(), want.Sum()) {
				t.Errorf("%s %s: engine count %d sum %v, per-token %d / %v", name, tc.metric,
					tc.got.Count(), tc.got.Sum(), want.Count(), want.Sum())
			}
			for p := 0.0; p <= 100; p += 0.5 {
				if g, w := tc.got.Quantile(p), want.Quantile(p); !same(g, w) {
					t.Errorf("%s %s: engine Quantile(%v) = %v, per-token %v", name, tc.metric, p, g, w)
				}
			}
			got, wantLines := seriesLines(e.Telemetry, tc.metric), seriesLines(ref, tc.metric)
			if strings.Join(got, "\n") != strings.Join(wantLines, "\n") {
				t.Errorf("%s %s: registry series\n%s\nper-token\n%s", name, tc.metric,
					strings.Join(got, "\n"), strings.Join(wantLines, "\n"))
			}
		}
		t.Logf("%s: %d steps, %d TTFT and %d TBT observations", name, m.Steps, len(m.TTFTs), len(m.TBTs))
	}
}

// TestLLMEngineDeterminism pins the engine: same inputs, same metrics.
func TestLLMEngineDeterminism(t *testing.T) {
	queries := burstWorkload()
	run := func() LLMMetrics {
		e := NewLLMEngine(llm.BuiltinSet(), 6.0, 2, FixedSelector(1))
		e.CollectLatencies = true
		return e.Run(queries)
	}
	a, b := run(), run()
	if a.Served != b.Served || a.Violations != b.Violations || a.Steps != b.Steps ||
		a.LatencyP99 != b.LatencyP99 || a.TTFTP99 != b.TTFTP99 || a.TBTP99 != b.TBTP99 {
		t.Fatalf("non-deterministic runs:\n%+v\n%+v", a.Metrics, b.Metrics)
	}
}

// TestLLMAdmissionAndTenants: a token run screens every arrival through the
// engine's admitters, as a scalar run does — one seeded burst under a cap on
// outstanding queries, and under weighted-fair admission between two
// tenants over that cap. Every tenant's offered queries are served, shed or
// dropped, and the shed counts are pinned as captured.
func TestLLMAdmissionAndTenants(t *testing.T) {
	models := llm.BuiltinSet()
	queries := burstWorkload()
	offered := map[string]int{}
	for i := range queries {
		queries[i].Tenant = []string{"chat", "batch"}[i%2]
		offered[queries[i].Tenant]++
	}
	reg, err := tenant.NewRegistry([]tenant.Tenant{
		{Name: "chat", SLOMS: 8000, Weight: 2, RateQPS: 2},
		{Name: "batch", SLOMS: 8000, Weight: 1, RateQPS: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		fair bool
		shed map[string]int // pinned per tenant; "" is the single-tenant run
	}{
		{"cap", false, map[string]int{"": 63}},
		{"fair", true, map[string]int{"chat": 31, "batch": 33}},
	} {
		e := NewLLMEngine(models, 8.0, 1, FixedSelector(models.Fastest()))
		e.Admit = admit.Cap{Limit: 6}
		if tc.fair {
			e.FairAdmit = tenant.NewFairAdmitter(reg, e.Admit, tenant.FairConfig{})
		}
		m := e.Run(queries)
		tallies := m.Tenants
		if tallies == nil {
			tallies = map[string]*Tally{"": &m.Tally}
		}
		if len(tallies) != len(tc.shed) {
			t.Errorf("%s: tallies for %d tenants, want %d", tc.name, len(tallies), len(tc.shed))
		}
		for name, want := range tc.shed {
			tm, off := tallies[name], len(queries)
			if name != "" {
				off = offered[name]
			}
			if tm == nil || tm.Served+tm.Shed+tm.Dropped != off || tm.Unserved != 0 {
				t.Errorf("%s/%q: %+v, want served + shed + dropped = %d offered", tc.name, name, tm, off)
				continue
			}
			t.Logf("%s/%q: served %d shed %d dropped %d", tc.name, name, tm.Served, tm.Shed, tm.Dropped)
			if tm.Shed != want {
				t.Errorf("%s/%q: shed %d, pinned %d", tc.name, name, tm.Shed, want)
			}
		}
	}
}

// recordingSelector logs every consult, all four arguments to the bit,
// before passing it on.
type recordingSelector struct {
	sel   ModelSelector
	calls []uint64
}

func (r *recordingSelector) SelectModel(queued, outstanding int, kv, slack float64) int {
	r.calls = append(r.calls, uint64(queued), uint64(outstanding), math.Float64bits(kv), math.Float64bits(slack))
	return r.sel.SelectModel(queued, outstanding, kv, slack)
}

// batcherLog is what one batcher showed its caller over a stream.
type batcherLog struct {
	calls       []uint64 // the selector's consults, four words each
	counts      llm.Counts
	peakKV      uint64
	finished    []uint64 // per finished sequence: ID, AdmitAt, FirstTokenAt and end bits
	rejected    []int
	ttfts, tbts []uint64
	outstanding []int // Outstanding() as each push found it
	stalled     bool  // still stepping an hour of modeled time after the last arrival
	boundaries  int   // every step, and every Begin that found nothing to run
}

// driveBatcher runs queries (ascending) through one batcher the way the
// token engine drives a worker — push at each arrival, Begin whenever it is
// idle, Land at the end Begin returned, arrivals first on a tie — with
// Begin's horizon the next push (runs) or now (one step per Begin). It
// returns the log and the number of Begin calls.
func driveBatcher(models llm.Set, sel ModelSelector, queries []TokenQuery, runs bool) (batcherLog, int) {
	rec := &recordingSelector{sel: sel}
	b := llm.NewBatcher[int](models, 8.0, rec, nil, 0)
	ttftH := telemetry.NewHistogram(telemetry.DefaultLatencyBuckets())
	tbtH := telemetry.NewHistogram(telemetry.DefaultLatencyBuckets())
	var (
		log         batcherLog
		ttfts, tbts []float64
		next, calls int
		busy        bool
		end         float64
		boundaries  int // Begin calls that reached a boundary and found nothing to run
	)
	begin := func(now float64) {
		horizon := now
		if runs {
			horizon = math.Inf(1)
			if next < len(queries) {
				horizon = queries[next].Arrival
			}
		}
		idle := b.Idle()
		var rejected []*llm.Seq[int]
		end, rejected, busy = b.Begin(now, horizon)
		calls++
		if !idle && !busy {
			boundaries++
		}
		for _, s := range rejected {
			log.rejected = append(log.rejected, s.ID)
		}
	}
	for {
		if next < len(queries) && (!busy || queries[next].Arrival <= end) {
			q := queries[next]
			next++
			log.outstanding = append(log.outstanding, b.Outstanding())
			b.Push(llm.Request{ID: q.ID, Arrival: q.Arrival, Prefill: q.Prefill, Decode: q.Decode}, 0)
			if !busy {
				begin(q.Arrival)
			}
			continue
		}
		if !busy {
			break
		}
		if end > queries[len(queries)-1].Arrival+3600 {
			log.stalled = true
			break
		}
		for _, s := range b.Land(end) {
			if s.Done() {
				log.finished = append(log.finished, uint64(s.ID),
					math.Float64bits(s.AdmitAt), math.Float64bits(s.FirstTokenAt), math.Float64bits(end))
			}
		}
		b.ObserveGaps(ttftH, tbtH, &ttfts, &tbts)
		begin(end)
	}
	log.calls, log.counts = rec.calls, b.Counts()
	log.peakKV, log.counts.PeakKV = math.Float64bits(log.counts.PeakKV), 0
	for _, x := range ttfts {
		log.ttfts = append(log.ttfts, math.Float64bits(x))
	}
	for _, x := range tbts {
		log.tbts = append(log.tbts, math.Float64bits(x))
	}
	log.boundaries = log.counts.Steps + boundaries
	return log, calls
}

// TestBatcherRunsMatchSingleSteps pins Begin's decode runs to one step per
// Begin: two batchers take identical pushes, one with horizon = now, the
// other with the next push as its horizon, and must show their callers the
// same thing bit for bit — every selector consult (all four arguments, one
// per boundary), Counts, each sequence's admission, first token and finish,
// the TTFT and TBT observation sequences, and Outstanding() at every push —
// under a fixed, a token-ladder, a stateful script and a token-policy
// selector, at the profiles' KV capacity and at 3,000 tokens.
func TestBatcherRunsMatchSingleSteps(t *testing.T) {
	models := llm.BuiltinSet()
	cls := llm.GeneralClass()
	pol, err := core.GenerateLLM(core.LLMConfig{
		Models: models, SLO: 8, Workers: 1, Rate: 4, In: cls.In, Out: cls.Out,
		TokenBucket: 128, MaxTokens: 8192,
	})
	if err != nil {
		t.Fatal(err)
	}
	policy, err := NewLLMPolicySelector(pol, models)
	if err != nil {
		t.Fatal(err)
	}
	selectors := []struct {
		name string
		sel  func() ModelSelector
	}{
		{"fixed", func() ModelSelector { return FixedSelector(models.Fastest()) }},
		{"ladder", func() ModelSelector {
			return tokenLadder{fast: models.Fastest(), accurate: models.MostAccurate(), limit: 3000}
		}},
		{"script", func() ModelSelector { return &scriptSelector{} }},
		{"policy", func() ModelSelector { return policy }},
	}
	burst := slices.Clone(burstWorkload())
	slices.SortStableFunc(burst, byArrival)
	workloads := map[string][]TokenQuery{"burst": burst, "poisson": poissonTokenWorkload(3, 60, 5)}
	for wl, queries := range workloads {
		for _, sc := range selectors {
			for _, kvCap := range []int{0, 3000} {
				name := fmt.Sprintf("%s/%s/kv=%d", wl, sc.name, kvCap)
				set := models.WithKVCap(kvCap)
				single, singleBegins := driveBatcher(set, sc.sel(), queries, false)
				runs, runBegins := driveBatcher(set, sc.sel(), queries, true)
				for _, f := range []struct {
					what      string
					want, got any
				}{
					{"selector consults", single.calls, runs.calls},
					{"counts", single.counts, runs.counts},
					{"peak KV", single.peakKV, runs.peakKV},
					{"finished sequences", single.finished, runs.finished},
					{"rejections", single.rejected, runs.rejected},
					{"TTFT observations", single.ttfts, runs.ttfts},
					{"TBT observations", single.tbts, runs.tbts},
					{"Outstanding at each push", single.outstanding, runs.outstanding},
					{"stalls", single.stalled, runs.stalled},
				} {
					if !reflect.DeepEqual(f.want, f.got) {
						t.Errorf("%s: %s differ between one step per Begin and decode runs", name, f.what)
					}
				}
				for _, l := range []batcherLog{single, runs} {
					if len(l.calls) != 4*l.boundaries {
						t.Errorf("%s: %d selector consults at %d step boundaries, want one each", name, len(l.calls)/4, l.boundaries)
					}
				}
				if runBegins >= singleBegins {
					t.Errorf("%s: %d Begin calls with runs, %d without: no decode run formed", name, runBegins, singleBegins)
				}
				t.Logf("%s: %d steps in %d Begins (%d one per Begin)", name, runs.counts.Steps, runBegins, singleBegins)
			}
		}
	}
}
