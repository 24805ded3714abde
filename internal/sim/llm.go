package sim

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"ramsis/internal/core"
	"ramsis/internal/lb"
	"ramsis/internal/llm"
	"ramsis/internal/telemetry"
)

// TokenQuery is one token-annotated query: a prompt of Prefill tokens to
// ingest and Decode output tokens to generate.
type TokenQuery = Query

// ModelSelector picks the step model a worker's next engine step should run
// (llm.Selector documents the observable state it is consulted with).
type ModelSelector = llm.Selector

// FixedSelector always selects one model — the no-selection baseline.
type FixedSelector int

// SelectModel returns the fixed index.
func (s FixedSelector) SelectModel(int, int, float64, float64) int { return int(s) }

// SelectRange returns the fixed index, which holds at every load.
func (s FixedSelector) SelectRange(int) (model, lo, hi int) {
	return int(s), math.MinInt, math.MaxInt
}

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
	model, _, _ := s.SelectRange(outstandingTokens)
	return model
}

// SelectRange implements llm.RangeSelector: the policy's answer holds over
// the load's bucket (core.LLMPolicy.SelectRange).
func (s *LLMPolicySelector) SelectRange(outstandingTokens int) (model, lo, hi int) {
	c, lo, hi := s.pol.SelectRange(outstandingTokens)
	if c.Arrival {
		return -1, lo, hi
	}
	return s.idx[c.ModelIdx], lo, hi
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
	// Consults counts the selector's answers over all workers: one per step
	// boundary, fewer under an llm.RangeSelector (llm.Counts).
	Consults int
	// PeakKVUsage is the maximum KV occupancy fraction any worker reached.
	PeakKVUsage float64
	// PrefillTokens and DecodeTokens count scheduled work over the run.
	PrefillTokens int64
	DecodeTokens  int64
}

// LLMEngine is the token-level simulator: the embedded Engine's event loop
// over continuous-batching workers. Each is an llm.Batcher — the scheduler
// cmd/serve's LLM workers run against the wall clock — that admits waiting
// queries into its running batch at every step boundary under KV-cache
// reservations and composes each step decode-first, chunking prefills.
//
// A token run reads these Engine fields: SLO (the batchers' one violation
// judgement), Workers, CollectLatencies, Traces and TraceWriter; Telemetry,
// which gets the batchers' ramsis_llm_* and query series and nothing from
// the dispatch core; Admit and FairAdmit, which screen every arrival (shed
// queries count in Shed, per tenant under FairAdmit), with Decisions
// recording their verdicts; and Sched, whose Balancer routes over each
// worker's unfinished tokens (by default lb.JoinShortestQueue) and whose
// Monitor observes every admitted arrival. Profiles, Latency,
// WorkerProfiles, DropExpired, RecordDecisions, Degrade and TenantSLOs
// describe scalar workers and have no effect on token workers.
type LLMEngine struct {
	Engine
	Models   llm.Set
	Selector ModelSelector
	// KVCap, when > 0, overrides every model's KV capacity in tokens.
	KVCap int

	tokenWorkers
}

// NewLLMEngine builds a token-level simulator over the step-model set.
func NewLLMEngine(models llm.Set, slo float64, workers int, sel ModelSelector) *LLMEngine {
	e := &LLMEngine{Engine: Engine{Sched: Scheme{Balancer: lb.NewJoinShortestQueue()}}, Models: models, Selector: sel}
	e.initWorkers(slo, workers)
	e.tokenWorkers.l = e
	e.tokens = &e.tokenWorkers
	return e
}

// Run replays the token-annotated queries in arrival order through the
// token workers and returns the run's metrics.
func (e *LLMEngine) Run(queries []TokenQuery) LLMMetrics {
	if !slices.IsSortedFunc(queries, byArrival) {
		queries = slices.Clone(queries)
		slices.SortStableFunc(queries, byArrival)
	}
	return e.fold(e.RunQueries(queries))
}

func byArrival(a, b Query) int { return cmp.Compare(a.Arrival, b.Arrival) }

// tokenWorkers is the token worker kind: worker w is an llm.Batcher tagging
// each query with its account, and lens[w] counts its unfinished tokens.
type tokenWorkers struct {
	l                 *LLMEngine
	b                 []*llm.Batcher[*account]
	ttftHist, tbtHist *telemetry.Histogram
	// ttfts and tbts hold every observation when CollectLatencies is set.
	ttfts, tbts []float64
}

// begin builds one batcher per worker over the run's model set.
func (t *tokenWorkers) begin() {
	e := t.l
	if err := e.Models.Validate(); err != nil {
		panic(fmt.Sprintf("sim: invalid model set: %v", err))
	}
	models := e.Models.WithKVCap(e.KVCap)
	t.b = make([]*llm.Batcher[*account], e.Workers)
	for w := range t.b {
		t.b[w] = llm.NewBatcher[*account](models, e.SLO, e.Selector, e.Telemetry, w)
	}
	t.ttftHist = telemetry.NewHistogram(telemetry.DefaultLatencyBuckets())
	t.tbtHist = telemetry.NewHistogram(telemetry.DefaultLatencyBuckets())
	t.ttfts, t.tbts = nil, nil
}

func (t *tokenWorkers) enqueue(w int, q Query) {
	e, b := t.l, t.b[w]
	b.Push(llm.Request{ID: q.ID, Arrival: q.Arrival, Prefill: q.Prefill, Decode: q.Decode}, e.account(q.Tenant))
	e.lens[w] = b.Outstanding()
	e.outstanding++
}

// start runs idle worker w's step boundaries from now and schedules the end
// of the first step its batcher does not land itself; queries whose KV
// footprint can never fit the serving model are dropped. The next arrival
// is the batcher's horizon: a decode run lands only steps that end before
// it, so that arrival still finds lens and Outstanding() as one event per
// step would leave them.
func (t *tokenWorkers) start(now float64, w int) {
	e, b := t.l, t.b[w]
	horizon := math.Inf(1)
	if len(e.rest) > 0 {
		horizon = e.rest[0].Arrival
	}
	end, rejected, ok := b.Begin(now, horizon)
	for _, s := range rejected {
		s.Tag.m.Dropped++
		if e.core.Tracing() {
			e.core.Trace(telemetry.QueryTrace{
				ID: s.ID, Arrival: s.Arrival, Worker: w, Error: "kv-oversize",
				TraceID: simTraceID(s.ID), Tenant: s.Tag.Name,
			}, []telemetry.Span{{Stage: telemetry.StageShed}})
		}
	}
	e.outstanding -= len(rejected)
	e.lens[w] = b.Outstanding()
	if ok {
		e.idle[w/64] &^= 1 << (w % 64)
		e.events.push(event{time: end, worker: w})
	}
}

// complete lands worker ev.worker's step and records every token it and
// the decode run before it generated, and every query it finished.
func (t *tokenWorkers) complete(ev event) {
	e, w, b := t.l, ev.worker, t.b[ev.worker]
	batch := b.Running()
	landed := b.Land(ev.time)
	var ttfts, tbts *[]float64
	if e.CollectLatencies {
		ttfts, tbts = &t.ttfts, &t.tbts
	}
	b.ObserveGaps(t.ttftHist, t.tbtHist, ttfts, tbts)
	tracing := e.core.Tracing()
	for _, s := range landed {
		if !s.Done() {
			continue
		}
		traceID := ""
		if tracing {
			traceID = simTraceID(s.ID)
		}
		m := b.Model()
		lat, violated := b.Finish(s, ev.time, traceID)
		e.serve(s.Tag, lat, violated, m.Accuracy)
		e.metrics.ModelCounts[m.Name]++
		e.outstanding--
		if tracing {
			e.core.Trace(telemetry.QueryTrace{
				ID: s.ID, Arrival: s.Arrival, Worker: w,
				Model: m.Name, Batch: batch,
				LatencyMS: lat * 1000, DeadlineMet: !violated,
				TraceID: traceID, Tenant: s.Tag.Name,
			}, s.Spans(ev.time))
		}
	}
	e.lens[w] = b.Outstanding()
	e.idle[w/64] |= 1 << (w % 64)
}

// fold adds the batchers' run totals and the token percentiles to a
// finished run's metrics; a decision is a step.
func (t *tokenWorkers) fold(run Metrics) LLMMetrics {
	m := LLMMetrics{Metrics: run, TTFTs: t.ttfts, TBTs: t.tbts}
	for _, b := range t.b {
		c := b.Counts()
		m.Steps += c.Steps
		m.ModelSwitches += c.Switches
		m.Consults += c.Consults
		m.PrefillTokens += c.PrefillTokens
		m.DecodeTokens += c.DecodeTokens
		m.PeakKVUsage = max(m.PeakKVUsage, c.PeakKV)
	}
	m.Decisions = m.Steps
	m.TTFTP50, m.TTFTP95, m.TTFTP99 = t.l.percentiles(m.TTFTs, t.ttftHist)
	m.TBTP50, m.TBTP95, m.TBTP99 = t.l.percentiles(m.TBTs, t.tbtHist)
	return m
}
