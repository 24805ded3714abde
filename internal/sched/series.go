package sched

import (
	"ramsis/internal/admit"
	"ramsis/internal/telemetry"
)

// Series caches the registry series of the query path, so neither driver's
// hot loop takes the registry's lookup lock. The simulator and the
// frontend record into the same names through this one wiring, which is
// what keeps a sim run and a live run directly comparable on a dashboard.
// The core updates the counters and the latency, batch-size, wait-estimate
// and decision-error histograms; the stage histograms are the drivers' to
// observe — the frontend times six stages per query, the simulator has no
// HTTP hops and carries mass in batch_wait and inference only.
type Series struct {
	Queries, Violations, Failed *telemetry.Counter
	Decisions, SatAcc           *telemetry.Counter
	Latency, BatchSize          *telemetry.Histogram
	// Admission: admitted and shed verdicts, the wait estimate each was
	// based on, and degraded-mode clamps. Shed is nil when no admission
	// policy fronts the core.
	Admitted, Shed, Degraded *telemetry.Counter
	EstWait                  *telemetry.Histogram
	// DecisionErr is |predicted − realized| inference latency per select
	// decision — how honest the profiled latency the policy committed to
	// turned out to be.
	DecisionErr *telemetry.Histogram
	// Fallbacks counts decisions served on the fallback model because the
	// selector misbehaved (see Core.Decide).
	Fallbacks *telemetry.Counter
	// Stage is ramsis_stage_seconds by span stage (telemetry.Stages).
	Stage map[string]*telemetry.Histogram
}

// NewSeries registers the query-path series; admitPolicy labels the shed
// counter ("" registers none).
func NewSeries(reg *telemetry.Registry, admitPolicy string) *Series {
	s := &Series{
		Queries:     reg.Counter(telemetry.MetricQueries),
		Violations:  reg.Counter(telemetry.MetricViolations),
		Failed:      reg.Counter(telemetry.MetricFailedDispatches),
		Decisions:   reg.Counter(telemetry.MetricDecisions),
		SatAcc:      reg.Counter(telemetry.MetricSatAccuracySum),
		Latency:     reg.Histogram(telemetry.MetricLatencySeconds),
		BatchSize:   reg.HistogramBuckets(telemetry.MetricBatchSize, telemetry.LinearBuckets(1, 1, 32)),
		Admitted:    reg.Counter(telemetry.MetricAdmitAdmitted),
		Degraded:    reg.Counter(telemetry.MetricAdmitDegradedDecisions),
		EstWait:     reg.Histogram(telemetry.MetricAdmitWaitSeconds),
		DecisionErr: reg.Histogram(telemetry.MetricDecisionError),
		Fallbacks:   reg.Counter(telemetry.MetricSelectFallbacks),
		Stage:       map[string]*telemetry.Histogram{},
	}
	for _, st := range telemetry.Stages() {
		s.Stage[st] = reg.Histogram(telemetry.MetricStageSeconds, "stage", st)
	}
	if admitPolicy != "" {
		s.Shed = reg.Counter(telemetry.MetricAdmitShed, "policy", admitPolicy)
	}
	reg.Help(telemetry.MetricQueries, "Queries whose batch completed (served).")
	reg.Help(telemetry.MetricViolations, "Served queries that missed the latency SLO.")
	reg.Help(telemetry.MetricStageSeconds, "Per-stage latency breakdown in modeled seconds.")
	reg.Help(telemetry.MetricLatencySeconds, "End-to-end response latency in modeled seconds.")
	reg.Help(telemetry.MetricDecisionError, "Absolute predicted-vs-realized dispatch latency error per select decision, modeled seconds.")
	reg.Help(telemetry.MetricTenantQueries, "Served queries by tenant.")
	reg.Help(telemetry.MetricTenantShed, "Admission rejections by tenant.")
	return s
}

// WireDegrade publishes the degrader's level and transitions into the
// registry, initializing the level gauge so the exposition shows it before
// the first transition. It is a no-op when either is nil.
func WireDegrade(reg *telemetry.Registry, d *admit.Degrader) {
	if reg == nil || d == nil {
		return
	}
	level := reg.Gauge(telemetry.MetricAdmitDegradeLevel)
	level.Set(float64(d.Level()))
	up := reg.Counter(telemetry.MetricAdmitDegradeTransitions, "dir", "up")
	down := reg.Counter(telemetry.MetricAdmitDegradeTransitions, "dir", "down")
	d.OnChange = func(lvl int, escalated bool) {
		level.Set(float64(lvl))
		if escalated {
			up.Inc()
		} else {
			down.Inc()
		}
	}
}
