package telemetry

// Canonical metric names shared by the serve layer and the simulator, so a
// dashboard built against the prototype reads identically off a sim run
// (the §7.3.1 fidelity claim depends on comparing exactly these series).
const (
	// MetricQueries counts queries whose batch completed (served, whether
	// or not the deadline was met). Identical to /stats "served".
	MetricQueries = "ramsis_queries_total"
	// MetricViolations counts served queries that missed the SLO.
	MetricViolations = "ramsis_slo_violations_total"
	// MetricFailedDispatches counts queries whose batch reached no worker
	// even after failover (serve layer only).
	MetricFailedDispatches = "ramsis_failed_dispatches_total"
	// MetricDecisions counts MS&S decisions (batches dispatched).
	MetricDecisions = "ramsis_decisions_total"
	// MetricSelectFallbacks counts dispatch decisions where the selector
	// named a model outside the profile set (or a batch below one) and the
	// frontend served the batch on its fallback model instead of dropping
	// live queries. Non-zero means a mis-wired policy; trace replay fails
	// the run on it.
	MetricSelectFallbacks = "ramsis_select_fallbacks_total"
	// MetricSatAccuracySum accumulates the profiled accuracy over queries
	// that met their deadline; divided by (queries - violations) it yields
	// the paper's accuracy-per-satisfied-query.
	MetricSatAccuracySum = "ramsis_satisfied_accuracy_sum"
	// MetricStageSeconds is the per-stage latency histogram, labeled
	// stage=<enqueue|pick|dispatch|batch_wait|inference|respond>.
	MetricStageSeconds = "ramsis_stage_seconds"
	// MetricLatencySeconds is the end-to-end response latency histogram in
	// modeled seconds.
	MetricLatencySeconds = "ramsis_query_latency_seconds"
	// MetricModelQueries counts queries served per model, labeled model=.
	MetricModelQueries = "ramsis_model_queries_total"
	// MetricWorkerHealthy is the per-worker health mark (1 healthy, 0
	// unhealthy), labeled worker=<index>.
	MetricWorkerHealthy = "ramsis_worker_healthy"
	// MetricWorkerDispatches counts /infer POSTs attempted per worker,
	// labeled worker=<index>.
	MetricWorkerDispatches = "ramsis_worker_dispatches_total"
	// MetricPickSeconds is the balancer pick-latency histogram, labeled
	// balancer=<rr|jsq|p2c>.
	MetricPickSeconds = "ramsis_lb_pick_seconds"
	// MetricHealthTransitions counts health-mark flips, labeled
	// to=<healthy|unhealthy>.
	MetricHealthTransitions = "ramsis_health_transitions_total"
	// MetricInferences counts inference batches executed on a worker
	// server, labeled model=.
	MetricInferences = "ramsis_worker_inferences_total"
	// MetricInferenceSeconds is the worker-side realized inference latency
	// histogram in modeled seconds.
	MetricInferenceSeconds = "ramsis_worker_inference_seconds"
	// MetricBatchSize is the dispatched batch-size histogram.
	MetricBatchSize = "ramsis_batch_size"

	// MetricAdaptResolves counts background MDP re-solves triggered by rate
	// drift (ladder hits do not solve and are not counted here).
	MetricAdaptResolves = "ramsis_adapt_resolves_total"
	// MetricAdaptResolveErrors counts re-solves that failed; the previous
	// policy set stays active.
	MetricAdaptResolveErrors = "ramsis_adapt_resolve_errors_total"
	// MetricAdaptCacheHits counts drift events whose rate bucket the policy
	// ladder already held (a solved or installed bucket): no solve.
	MetricAdaptCacheHits = "ramsis_adapt_cache_hits_total"
	// MetricAdaptCacheMisses counts drift events that had to solve.
	MetricAdaptCacheMisses = "ramsis_adapt_cache_misses_total"
	// MetricAdaptSwaps counts policy-set hot-swaps published to the
	// dispatch path.
	MetricAdaptSwaps = "ramsis_adapt_swaps_total"
	// MetricAdaptSwapSeconds is the drift-to-swap latency histogram in wall
	// seconds: how long dispatch ran on the stale policy after drift was
	// confirmed (≈ solve time on a miss, ≈ 0 on a ladder hit).
	MetricAdaptSwapSeconds = "ramsis_adapt_swap_seconds"
	// MetricAdaptRateBucket is the rate bucket (QPS) of the currently
	// active policy.
	MetricAdaptRateBucket = "ramsis_adapt_rate_bucket"
	// MetricAdaptWarmStarts counts re-solves warm-started from the ladder's
	// nearest bucket's converged value vector instead of zeros.
	MetricAdaptWarmStarts = "ramsis_adapt_warm_starts_total"
	// MetricAdaptResolveIterations is the solver iteration count of the most
	// recent successful re-solve — warm starts drive it down, which is what
	// shrinks the drift-to-swap histogram.
	MetricAdaptResolveIterations = "ramsis_adapt_resolve_iterations"
	// MetricAdaptResolveBuildSeconds and MetricAdaptResolveSolveSeconds split
	// the most recent successful re-solve's wall time into the transition
	// build and the compile + solve — which of the two a slow drift-to-swap
	// window was spent in.
	MetricAdaptResolveBuildSeconds = "ramsis_adapt_resolve_build_seconds"
	MetricAdaptResolveSolveSeconds = "ramsis_adapt_resolve_solve_seconds"

	// MetricAdmitAdmitted counts queries the admission controller let
	// through (only incremented when an admitter is configured).
	MetricAdmitAdmitted = "ramsis_admit_admitted_total"
	// MetricAdmitShed counts queries rejected at arrival, labeled
	// policy=<deadline|cap>. Shed queries are never enqueued: the serve
	// layer answers 429 with Retry-After, the simulator drops them from
	// the offered stream. They count against goodput, not the violation
	// rate.
	MetricAdmitShed = "ramsis_admit_shed_total"
	// MetricAdmitWaitSeconds is the histogram of queue-wait estimates the
	// admitter computed per arrival (admitted and shed alike) — the
	// overload early-warning signal.
	MetricAdmitWaitSeconds = "ramsis_admit_est_wait_seconds"
	// MetricAdmitDegradeLevel is the current degraded-mode level: 0 runs
	// the policy's own choice, level k forbids the k slowest models.
	MetricAdmitDegradeLevel = "ramsis_admit_degrade_level"
	// MetricAdmitDegradeTransitions counts degraded-mode level changes,
	// labeled dir=<up|down>.
	MetricAdmitDegradeTransitions = "ramsis_admit_degrade_transitions_total"
	// MetricAdmitDegradedDecisions counts dispatch decisions whose model
	// was clamped to a faster one by degraded mode.
	MetricAdmitDegradedDecisions = "ramsis_admit_degraded_decisions_total"
	// MetricAdmitRetries counts dispatch failover retries the retry
	// budget granted.
	MetricAdmitRetries = "ramsis_admit_failover_retries_total"
	// MetricAdmitRetriesDenied counts failover retries the budget refused
	// (the batch fails fast instead of amplifying an overload).
	MetricAdmitRetriesDenied = "ramsis_admit_failover_denied_total"

	// MetricTenantQueries counts queries whose batch completed, labeled
	// tenant=. Sim and serve record the same series, mirroring
	// MetricQueries.
	MetricTenantQueries = "ramsis_tenant_queries_total"
	// MetricTenantViolations counts served queries that missed the
	// tenant's own SLO, labeled tenant=.
	MetricTenantViolations = "ramsis_tenant_violations_total"
	// MetricTenantAdmitted counts queries weighted-fair admission let
	// through, labeled tenant=.
	MetricTenantAdmitted = "ramsis_tenant_admitted_total"
	// MetricTenantShed counts queries weighted-fair admission rejected,
	// labeled tenant=. An over-share tenant's excess lands here before any
	// compliant tenant is touched.
	MetricTenantShed = "ramsis_tenant_shed_total"
	// MetricTenantBorrowed counts admitted queries that exceeded their
	// tenant's fair-share bucket but were let in because the plane had
	// headroom (work-conserving borrowing), labeled tenant=.
	MetricTenantBorrowed = "ramsis_tenant_borrowed_total"
	// MetricTenantGoodput is the live per-tenant goodput fraction —
	// in-SLO responses over offered (admitted + shed) — labeled tenant=.
	MetricTenantGoodput = "ramsis_tenant_goodput"
	// MetricTenantRate is the tenant's monitored arrival rate in QPS,
	// labeled tenant=.
	MetricTenantRate = "ramsis_tenant_rate_qps"
	// MetricTenantDegradeLevel is the tenant's own degraded-mode level
	// (replacing the single global clamp), labeled tenant=.
	MetricTenantDegradeLevel = "ramsis_tenant_degrade_level"
	// MetricShardQueries counts queries routed to each frontend shard by
	// the sharding tier, labeled shard=.
	MetricShardQueries = "ramsis_shard_queries_total"
	// MetricShardDepth is each shard's outstanding work (queued plus
	// in-flight, summed over its workers), labeled shard= — the P2C
	// sharder's routing signal.
	MetricShardDepth = "ramsis_shard_depth"

	// MetricSLOAttainment is the windowed fraction of served queries that
	// met their SLO, labeled tenant= and window= (horizon in modeled
	// seconds). Sim and serve compute it from the same SLOTracker.
	MetricSLOAttainment = "ramsis_slo_attainment"
	// MetricSLOBurnRate is the windowed error-budget burn rate — the
	// violation fraction over the window divided by (1 - objective) — with
	// the same tenant= and window= labels. 1.0 consumes the budget exactly
	// as contracted.
	MetricSLOBurnRate = "ramsis_slo_burn_rate"
	// MetricDecisionError is the histogram of |predicted - realized|
	// dispatch latency per select decision in modeled seconds: how far the
	// profiled batch latency the policy committed to was from what the
	// worker measured.
	MetricDecisionError = "ramsis_decision_latency_error_seconds"

	// MetricLLMTTFT is the time-to-first-token histogram of the LLM
	// continuous-batching path in modeled seconds: arrival to the end of
	// the step that finished the query's prefill.
	MetricLLMTTFT = "ramsis_llm_ttft_seconds"
	// MetricLLMTBT is the time-between-tokens histogram in modeled
	// seconds: the gap between consecutive decode tokens of one query.
	MetricLLMTBT = "ramsis_llm_tbt_seconds"
	// MetricLLMStepSeconds is the engine step-latency histogram in modeled
	// seconds (the realized step_time(prefill, decode, kv) values).
	MetricLLMStepSeconds = "ramsis_llm_step_seconds"
	// MetricLLMSteps counts engine steps executed, labeled model=.
	MetricLLMSteps = "ramsis_llm_steps_total"
	// MetricLLMTokens counts tokens processed, labeled
	// kind=<prefill|decode>.
	MetricLLMTokens = "ramsis_llm_tokens_total"
	// MetricLLMKVUsage is the worker's current KV-cache usage fraction,
	// labeled worker=<index>.
	MetricLLMKVUsage = "ramsis_llm_kv_usage"
	// MetricLLMModelSwitches counts serving-model switches (each waits for
	// the running batch to drain before taking effect).
	MetricLLMModelSwitches = "ramsis_llm_model_switches_total"
)

// Span stage names, in the order a query traverses them: queued by the
// handler, routed by the balancer, waiting for the selector to batch it,
// dispatched over HTTP, executing inference, and finally responded to.
// StageShed is the terminal outcome of a query the admission controller
// rejected: its trace carries that single zero-length stage instead of the
// traversal, so shed queries stay visible in /debug/traces and trace
// exports without polluting the stage latency histograms.
// StageRoute is the gateway-side stage of a sharded deployment: tenant
// resolution, shard pick, and the in-process enqueue on the chosen shard.
// It appears only in gateway trace fragments, not in the frontend's
// six-stage traversal.
// StagePrefill and StageDecode are the LLM continuous-batching stages: a
// token-level query's trace carries batch_wait (arrival to admission into
// the running batch), prefill (admission to first token), and decode (first
// token to completion) instead of the scalar inference span.
const (
	StageEnqueue   = "enqueue"
	StagePick      = "pick"
	StageBatchWait = "batch_wait"
	StageDispatch  = "dispatch"
	StageInference = "inference"
	StageRespond   = "respond"
	StageShed      = "shed"
	StageRoute     = "route"
	StagePrefill   = "prefill"
	StageDecode    = "decode"
)

// Stages returns every span stage in traversal order.
func Stages() []string {
	return []string{StageEnqueue, StagePick, StageBatchWait, StageDispatch, StageInference, StageRespond}
}
