package serve

import (
	"strconv"
	"sync"

	"ramsis/internal/lb"
	"ramsis/internal/telemetry"
)

// serveSeries caches the registry series the Frontend updates on its
// dispatch path, so the hot path never takes the registry's lookup lock.
// The same metric names are recorded by the simulator's engine, keeping sim
// and live runs directly comparable.
type serveSeries struct {
	queries    *telemetry.Counter
	violations *telemetry.Counter
	failed     *telemetry.Counter
	decisions  *telemetry.Counter
	satAcc     *telemetry.Counter
	latency    *telemetry.Histogram
	batchSize  *telemetry.Histogram
	stages     map[string]*telemetry.Histogram
	// Per-stage histograms cached as direct fields: the dispatch loop
	// observes all six stages per query, and six map lookups per query
	// are measurable at saturation.
	stEnqueue   *telemetry.Histogram
	stPick      *telemetry.Histogram
	stBatchWait *telemetry.Histogram
	stDispatch  *telemetry.Histogram
	stInference *telemetry.Histogram
	stRespond   *telemetry.Histogram
	// Admission-control series: admitted/shed decisions, the wait estimate
	// each decision was based on, degraded-mode clamps, and the failover
	// retry budget's grants and refusals.
	admitted      *telemetry.Counter
	degraded      *telemetry.Counter
	retries       *telemetry.Counter
	retriesDenied *telemetry.Counter
	estWait       *telemetry.Histogram
	// decisionErr is |predicted - realized| inference latency per select
	// decision — how honest the profiled latency the policy committed to
	// turned out to be.
	decisionErr *telemetry.Histogram
	// fallbacks counts decisions served on the fallback model because the
	// selector misbehaved (see MetricSelectFallbacks).
	fallbacks *telemetry.Counter
	// workerDispatch counts /infer POSTs per worker; it backs both the
	// exposition and StatsResponse.WorkerDispatches so they cannot drift.
	workerDispatch []*telemetry.Counter
	reg            *telemetry.Registry
	// modelCtr memoizes the per-model served-queries counters on first
	// use: the registry lookup builds a sorted label key per call, which
	// the per-batch model() hit made visible in the allocation profile.
	modelMu  sync.RWMutex
	modelCtr map[string]*telemetry.Counter
}

// newServeSeries builds the cache. offset shifts the worker label indices:
// shard i of a sharded plane passes its global worker offset so every
// worker keeps a distinct series in the shared registry (shard-local index
// w is exposed as worker offset+w).
func newServeSeries(reg *telemetry.Registry, workers, offset int) *serveSeries {
	s := &serveSeries{
		queries:    reg.Counter(telemetry.MetricQueries),
		violations: reg.Counter(telemetry.MetricViolations),
		failed:     reg.Counter(telemetry.MetricFailedDispatches),
		decisions:  reg.Counter(telemetry.MetricDecisions),
		satAcc:     reg.Counter(telemetry.MetricSatAccuracySum),
		latency:    reg.Histogram(telemetry.MetricLatencySeconds),
		batchSize:  reg.HistogramBuckets(telemetry.MetricBatchSize, telemetry.LinearBuckets(1, 1, 32)),
		stages:     map[string]*telemetry.Histogram{},

		admitted:      reg.Counter(telemetry.MetricAdmitAdmitted),
		degraded:      reg.Counter(telemetry.MetricAdmitDegradedDecisions),
		retries:       reg.Counter(telemetry.MetricAdmitRetries),
		retriesDenied: reg.Counter(telemetry.MetricAdmitRetriesDenied),
		estWait:       reg.Histogram(telemetry.MetricAdmitWaitSeconds),
		decisionErr:   reg.Histogram(telemetry.MetricDecisionError),
		fallbacks:     reg.Counter(telemetry.MetricSelectFallbacks),

		reg:      reg,
		modelCtr: map[string]*telemetry.Counter{},
	}
	reg.Help(telemetry.MetricDecisionError, "Absolute predicted-vs-realized dispatch latency error per select decision, modeled seconds.")
	for _, st := range telemetry.Stages() {
		s.stages[st] = reg.Histogram(telemetry.MetricStageSeconds, "stage", st)
	}
	s.stEnqueue = s.stages[telemetry.StageEnqueue]
	s.stPick = s.stages[telemetry.StagePick]
	s.stBatchWait = s.stages[telemetry.StageBatchWait]
	s.stDispatch = s.stages[telemetry.StageDispatch]
	s.stInference = s.stages[telemetry.StageInference]
	s.stRespond = s.stages[telemetry.StageRespond]
	for w := 0; w < workers; w++ {
		s.workerDispatch = append(s.workerDispatch,
			reg.Counter(telemetry.MetricWorkerDispatches, "worker", strconv.Itoa(offset+w)))
	}
	reg.Help(telemetry.MetricQueries, "Queries whose batch completed (served).")
	reg.Help(telemetry.MetricViolations, "Served queries that missed the latency SLO.")
	reg.Help(telemetry.MetricStageSeconds, "Per-stage latency breakdown in modeled seconds.")
	reg.Help(telemetry.MetricLatencySeconds, "End-to-end response latency in modeled seconds.")
	reg.Help(telemetry.MetricWorkerHealthy, "Per-worker health mark (1 healthy, 0 unhealthy).")
	return s
}

// model returns the per-model served-queries counter, registering it on
// first use and answering from the memo after.
func (s *serveSeries) model(name string) *telemetry.Counter {
	s.modelMu.RLock()
	c, ok := s.modelCtr[name]
	s.modelMu.RUnlock()
	if ok {
		return c
	}
	c = s.reg.Counter(telemetry.MetricModelQueries, "model", name)
	s.modelMu.Lock()
	s.modelCtr[name] = c
	s.modelMu.Unlock()
	return c
}

// shed returns the shed counter for the given admission policy.
func (s *serveSeries) shed(policy string) *telemetry.Counter {
	return s.reg.Counter(telemetry.MetricAdmitShed, "policy", policy)
}

// registerHealthGauges exposes the tracker's live per-worker marks as
// ramsis_worker_healthy gauges; reading the tracker at exposition time
// keeps /metrics and /stats backed by the same source. offset shifts the
// worker labels like newServeSeries, so shards sharing a registry never
// collide on a gauge (a second GaugeFunc on the same label set would be
// silently dropped, leaving shard 1's workers reporting shard 0's health).
func registerHealthGauges(reg *telemetry.Registry, h *lb.HealthTracker, workers, offset int) {
	for w := 0; w < workers; w++ {
		w := w
		reg.GaugeFunc(telemetry.MetricWorkerHealthy, func() float64 {
			if h.IsHealthy(w) {
				return 1
			}
			return 0
		}, "worker", strconv.Itoa(offset+w))
	}
}
