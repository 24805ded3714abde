package sim

import (
	"fmt"
	"math"
	"sort"

	"ramsis/internal/core"
	"ramsis/internal/llm"
	"ramsis/internal/stats"
	"ramsis/internal/telemetry"
)

// TokenQuery is one token-annotated query: a prompt of Prefill tokens to
// ingest and Decode output tokens to generate.
type TokenQuery = llm.Request

// ModelSelector picks the step model a worker's next engine step should run
// (llm.Selector documents the observable state it is consulted with).
type ModelSelector = llm.Selector

// FixedSelector always selects one model — the no-selection baseline.
type FixedSelector int

// SelectModel returns the fixed index.
func (s FixedSelector) SelectModel(int, int, float64, float64) int { return int(s) }

// LLMPolicySelector drives selection from an offline-generated token-stream
// policy (core.GenerateLLM): the worker's bucketed outstanding-token load is
// the policy state.
type LLMPolicySelector struct {
	pol *core.LLMPolicy
	idx []int // policy model index -> engine model index
}

// NewLLMPolicySelector maps the policy's (pruned) model set onto the
// engine's; every policy model must exist in models.
func NewLLMPolicySelector(pol *core.LLMPolicy, models llm.Set) (*LLMPolicySelector, error) {
	pm := pol.Models()
	idx := make([]int, pm.Len())
	for i, m := range pm.Models {
		j := models.IndexByName(m.Name)
		if j < 0 {
			return nil, fmt.Errorf("sim: policy model %q not in engine set", m.Name)
		}
		idx[i] = j
	}
	return &LLMPolicySelector{pol: pol, idx: idx}, nil
}

// SelectModel implements ModelSelector via the token-bucket policy lookup.
func (s *LLMPolicySelector) SelectModel(_, outstandingTokens int, _, _ float64) int {
	c := s.pol.Select(outstandingTokens)
	if c.Arrival {
		return -1
	}
	return s.idx[c.ModelIdx]
}

// ScalarPolicySelector drives selection from a scalar queue-state policy
// (core.Generate over llm.Set.ScalarProfiles) — the profile-table baseline
// the token-aware policy is compared against. It sees query count and head
// slack only; token composition and KV state are invisible to it.
type ScalarPolicySelector struct {
	pol *core.Policy
	idx map[string]int
}

// NewScalarPolicySelector maps the scalar policy's model names onto the
// engine's step-model set.
func NewScalarPolicySelector(pol *core.Policy, models llm.Set) (*ScalarPolicySelector, error) {
	idx := make(map[string]int, models.Len())
	for _, name := range pol.Models() {
		j := models.IndexByName(name)
		if j < 0 {
			return nil, fmt.Errorf("sim: policy model %q not in engine set", name)
		}
		idx[name] = j
	}
	return &ScalarPolicySelector{pol: pol, idx: idx}, nil
}

// SelectModel implements ModelSelector via the scalar (n, slack) lookup.
func (s *ScalarPolicySelector) SelectModel(queued, _ int, _ float64, headSlack float64) int {
	c := s.pol.Select(queued, headSlack)
	if c.Arrival {
		return -1
	}
	return s.idx[c.Model]
}

// LLMMetrics extends the scalar run metrics with the token-level series:
// time-to-first-token and time-between-tokens percentiles, step and token
// counts, model switches, and peak KV occupancy. Decisions counts engine
// steps (one selection decision each).
type LLMMetrics struct {
	Metrics
	// TTFT percentiles: arrival to first generated token, in modeled
	// seconds. Exact when CollectLatencies is set, histogram-derived
	// otherwise.
	TTFTP50, TTFTP95, TTFTP99 float64
	// TBT percentiles: gap between consecutive decode tokens of one query.
	TBTP50, TBTP95, TBTP99 float64
	// TTFTs and TBTs hold every observation when collection was enabled.
	TTFTs, TBTs []float64

	Steps         int
	ModelSwitches int
	// PeakKVUsage is the maximum KV occupancy fraction any worker reached.
	PeakKVUsage float64
	// PrefillTokens and DecodeTokens count scheduled work over the run.
	PrefillTokens int64
	DecodeTokens  int64
}

// llmWorker is one continuous-batching worker: the shared step scheduler
// plus the event loop's view of its in-flight step.
type llmWorker struct {
	id      int
	b       *llm.Batcher[struct{}]
	busy    bool
	stepEnd float64
}

// LLMEngine is the token-level discrete-event simulator: continuous-batching
// workers that admit waiting queries into a running batch at every step
// boundary, schedule decode-first under the model's token budget, chunk
// prefills across steps, and gate admission on KV-cache reservations. The
// scheduling itself is llm.Batcher — the same code cmd/serve's LLM workers
// run against the wall clock; the engine only supplies the event loop. A
// query's end-to-end latency is its queue wait plus the step times it rides
// through; TTFT and TBT fall out of the same step walk.
type LLMEngine struct {
	Models   llm.Set
	SLO      float64
	Workers  int
	Selector ModelSelector
	// KVCap, when > 0, overrides every model's KV capacity in tokens.
	KVCap int
	// CollectLatencies records every latency, TTFT, and TBT observation for
	// exact percentiles.
	CollectLatencies bool
	// Telemetry, when set, exposes the run's series (the same names
	// cmd/serve's LLM workers export).
	Telemetry *telemetry.Registry
	// Traces and TraceWriter mirror the scalar engine's trace sinks.
	Traces      *telemetry.TraceBuffer
	TraceWriter *telemetry.TraceWriter

	workers  []*llmWorker
	metrics  LLMMetrics
	latHist  *telemetry.Histogram
	ttftHist *telemetry.Histogram
	tbtHist  *telemetry.Histogram
}

// NewLLMEngine builds a token-level simulator over the step-model set.
func NewLLMEngine(models llm.Set, slo float64, workers int, sel ModelSelector) *LLMEngine {
	if workers < 1 {
		panic(fmt.Sprintf("sim: invalid worker count %d", workers))
	}
	return &LLMEngine{Models: models, SLO: slo, Workers: workers, Selector: sel}
}

func (e *LLMEngine) tracing() bool { return e.Traces != nil || e.TraceWriter != nil }

// Run replays the token-annotated queries through the continuous-batching
// workers and returns the run's metrics. Queries are processed in arrival
// order; arrivals route to the worker with the least outstanding token load.
func (e *LLMEngine) Run(queries []TokenQuery) LLMMetrics {
	if err := e.Models.Validate(); err != nil {
		panic(fmt.Sprintf("sim: invalid model set: %v", err))
	}
	models := e.Models.WithKVCap(e.KVCap)
	e.metrics = LLMMetrics{Metrics: Metrics{ModelCounts: map[string]int{}}}
	e.latHist = telemetry.NewHistogram(telemetry.DefaultLatencyBuckets())
	e.ttftHist = telemetry.NewHistogram(telemetry.DefaultLatencyBuckets())
	e.tbtHist = telemetry.NewHistogram(telemetry.DefaultLatencyBuckets())
	e.workers = make([]*llmWorker, e.Workers)
	for w := range e.workers {
		e.workers[w] = &llmWorker{
			id: w, stepEnd: math.Inf(1),
			b: llm.NewBatcher[struct{}](models, e.SLO, e.Selector, e.Telemetry, w),
		}
	}

	qs := append([]TokenQuery(nil), queries...)
	sort.SliceStable(qs, func(i, j int) bool { return qs[i].Arrival < qs[j].Arrival })

	qi := 0
	for {
		wmin, tmin := -1, math.Inf(1)
		for w, lw := range e.workers {
			if lw.busy && lw.stepEnd < tmin {
				wmin, tmin = w, lw.stepEnd
			}
		}
		if qi < len(qs) && qs[qi].Arrival <= tmin {
			e.route(qs[qi])
			qi++
			continue
		}
		if wmin < 0 {
			break
		}
		lw := e.workers[wmin]
		e.completeStep(lw, tmin)
		e.startStep(lw, tmin)
	}
	e.finish()
	return e.metrics
}

// route hands the query to the worker with the least outstanding token load
// (a join-shortest-token-queue balancer; queue length alone would
// under-weigh long-prefill arrivals).
func (e *LLMEngine) route(q TokenQuery) {
	best := e.workers[0]
	for _, lw := range e.workers[1:] {
		if lw.b.Outstanding() < best.b.Outstanding() {
			best = lw
		}
	}
	best.b.Push(q, struct{}{})
	if !best.busy {
		e.startStep(best, q.Arrival)
	}
}

// startStep runs the worker's step boundary at time now and schedules the
// composed step's completion; queries whose KV footprint can never fit the
// serving model are dropped.
func (e *LLMEngine) startStep(lw *llmWorker, now float64) {
	seconds, rejected, ok := lw.b.Begin(now)
	for _, s := range rejected {
		e.metrics.Dropped++
		if e.tracing() {
			telemetry.Record(e.Traces, e.TraceWriter, telemetry.QueryTrace{
				ID: s.ID, Arrival: s.Arrival, Worker: lw.id,
				Error:   "kv-oversize",
				TraceID: simTraceID(s.ID), Process: "sim",
				Spans: []telemetry.Span{{Stage: telemetry.StageShed}},
			})
		}
	}
	lw.busy = ok
	lw.stepEnd = math.Inf(1)
	if ok {
		lw.stepEnd = now + seconds
	}
}

// completeStep lands the worker's step at time end and records every token
// it generated and every query it finished.
func (e *LLMEngine) completeStep(lw *llmWorker, end float64) {
	batch := lw.b.Running()
	landed := lw.b.Land(end)
	llm.ObserveGaps(landed, e.ttftHist, e.tbtHist)
	for _, s := range landed {
		if e.CollectLatencies {
			if s.First() {
				e.metrics.TTFTs = append(e.metrics.TTFTs, s.Gap)
			} else {
				e.metrics.TBTs = append(e.metrics.TBTs, s.Gap)
			}
		}
		if s.Done() {
			e.complete(lw, s, batch, end)
		}
	}
}

// complete records one finished query.
func (e *LLMEngine) complete(lw *llmWorker, s *llm.Seq[struct{}], batch int, end float64) {
	traceID := ""
	if e.tracing() {
		traceID = simTraceID(s.ID)
	}
	m := lw.b.Model()
	lat, violated := lw.b.Finish(s, end, traceID)
	e.metrics.Serve(violated, m.Accuracy)
	e.latHist.Observe(lat)
	if e.CollectLatencies {
		e.metrics.Latencies = append(e.metrics.Latencies, lat)
	}
	e.metrics.ModelCounts[m.Name]++
	if e.tracing() {
		telemetry.Record(e.Traces, e.TraceWriter, telemetry.QueryTrace{
			ID: s.ID, Arrival: s.Arrival, Worker: lw.id,
			Model: m.Name, Batch: batch,
			LatencyMS:   lat * 1000,
			DeadlineMet: !violated,
			TraceID:     traceID, Process: "sim",
			Spans: s.Spans(end),
		})
	}
}

// finish sums the workers' scheduler totals and fills the percentile
// fields: exact when every observation was collected, histogram-
// approximated otherwise.
func (e *LLMEngine) finish() {
	for _, lw := range e.workers {
		c := lw.b.Counts()
		e.metrics.Steps += c.Steps
		e.metrics.ModelSwitches += c.Switches
		e.metrics.PrefillTokens += c.PrefillTokens
		e.metrics.DecodeTokens += c.DecodeTokens
		e.metrics.PeakKVUsage = max(e.metrics.PeakKVUsage, c.PeakKV)
	}
	e.metrics.Decisions = e.metrics.Steps
	pct := func(xs []float64, h *telemetry.Histogram) (p50, p95, p99 float64) {
		if e.CollectLatencies && len(xs) > 0 {
			return stats.Percentile(xs, 50), stats.Percentile(xs, 95), stats.Percentile(xs, 99)
		}
		return h.Quantile(50), h.Quantile(95), h.Quantile(99)
	}
	e.metrics.LatencyP50, e.metrics.LatencyP95, e.metrics.LatencyP99 = pct(e.metrics.Latencies, e.latHist)
	e.metrics.TTFTP50, e.metrics.TTFTP95, e.metrics.TTFTP99 = pct(e.metrics.TTFTs, e.ttftHist)
	e.metrics.TBTP50, e.metrics.TBTP95, e.metrics.TBTP99 = pct(e.metrics.TBTs, e.tbtHist)
}
