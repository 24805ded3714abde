package llm

import (
	"strconv"

	"ramsis/internal/telemetry"
)

// series caches the registry series one continuous-batching worker updates.
// The simulator's workers and cmd/serve's LLM workers share this wiring
// through the Batcher, so both export the same names.
type series struct {
	queries, violations, satAcc *telemetry.Counter
	latency, batchWait          *telemetry.Histogram
	ttft, tbt, step             *telemetry.Histogram
	prefillTokens, decodeTokens *telemetry.Counter
	switches                    *telemetry.Counter
	steps, modelQueries         *telemetry.CounterVec
	kv                          *telemetry.Gauge
}

// newSeries resolves the series for the worker with the given index (the
// KV-usage gauge's label; every other series merges across workers).
func newSeries(reg *telemetry.Registry, worker int) *series {
	reg.Help(telemetry.MetricLLMTTFT, "Time to first token in modeled seconds.")
	reg.Help(telemetry.MetricLLMTBT, "Time between decode tokens in modeled seconds.")
	reg.Help(telemetry.MetricLLMStepSeconds, "Continuous-batching step latency in modeled seconds.")
	reg.Help(telemetry.MetricLLMKVUsage, "KV-cache occupancy fraction per worker.")
	return &series{
		queries:       reg.Counter(telemetry.MetricQueries),
		violations:    reg.Counter(telemetry.MetricViolations),
		satAcc:        reg.Counter(telemetry.MetricSatAccuracySum),
		latency:       reg.Histogram(telemetry.MetricLatencySeconds),
		batchWait:     reg.Histogram(telemetry.MetricStageSeconds, "stage", telemetry.StageBatchWait),
		ttft:          reg.Histogram(telemetry.MetricLLMTTFT),
		tbt:           reg.Histogram(telemetry.MetricLLMTBT),
		step:          reg.Histogram(telemetry.MetricLLMStepSeconds),
		prefillTokens: reg.Counter(telemetry.MetricLLMTokens, "kind", "prefill"),
		decodeTokens:  reg.Counter(telemetry.MetricLLMTokens, "kind", "decode"),
		switches:      reg.Counter(telemetry.MetricLLMModelSwitches),
		steps:         reg.CounterVec(telemetry.MetricLLMSteps, "model"),
		modelQueries:  reg.CounterVec(telemetry.MetricModelQueries, "model"),
		kv:            reg.Gauge(telemetry.MetricLLMKVUsage, "worker", strconv.Itoa(worker)),
	}
}

// served records one finished request: its end-to-end latency, its queue
// wait before admission, and the accuracy it earned if it met the SLO.
func (s *series) served(m *StepModel, latency, wait float64, violated bool, traceID string) {
	s.queries.Inc()
	if violated {
		s.violations.Inc()
	} else {
		s.satAcc.Add(m.Accuracy)
	}
	s.modelQueries.With(m.Name).Inc()
	s.latency.ObserveExemplar(latency, traceID)
	s.batchWait.Observe(wait)
}

// Spans is a finished sequence's trace breakdown: queue wait, prefill
// (admission to first token), and decode (first token to end).
func (s *Seq[T]) Spans(end float64) []telemetry.Span {
	return []telemetry.Span{
		{Stage: telemetry.StageBatchWait, Seconds: s.AdmitAt - s.Arrival},
		{Stage: telemetry.StagePrefill, Seconds: s.FirstTokenAt - s.AdmitAt},
		{Stage: telemetry.StageDecode, Seconds: end - s.FirstTokenAt},
	}
}
