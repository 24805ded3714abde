// Package sim is the discrete-event inference-serving simulator (§6
// "Simulation Framework"): given a trace of arrival times it records MS&S
// decisions and tracks the central queue, per-worker queues, and worker
// busy/available status, using profiled model latencies to determine how
// long a worker stays busy. The engine is the only code that touches the
// queues: a scheme describes itself as a Scheme — monitor, balancer,
// sched.Selector — so RAMSIS and every §7 baseline is a selector that runs
// unchanged here and in internal/serve's frontend, and both drivers share
// the arrive / decide / finish core in internal/sched, mirroring the
// paper's shared implementation.
// One event loop serves both worker kinds: a scalar worker runs batches the
// selector sizes, a token worker (LLMEngine) an llm.Batcher's steps.
package sim

import (
	"fmt"
	"math/bits"
	"math/rand"

	"ramsis/internal/admit"
	"ramsis/internal/lb"
	"ramsis/internal/monitor"
	"ramsis/internal/profile"
	"ramsis/internal/sched"
	"ramsis/internal/stats"
	"ramsis/internal/telemetry"
)

// Query is one inference request.
type Query struct {
	ID              int
	Arrival         float64 // seconds from trace start
	Prefill, Decode int     // a token query's prompt and output tokens; scalar workers ignore them
	// Tenant labels the query's owner in multi-tenant runs; empty in
	// single-tenant workloads (the N=1 special case).
	Tenant string
}

// Scheme is how an MS&S scheme plugs into the engine, read once per run.
// Monitor becomes every account's rate monitor, which the dispatch core
// observes on every admitted arrival (sched.Core.Arrive); the engine then
// routes the query: onto the worker queue Balancer picks, or, with no
// Balancer, onto the one central queue idle workers pull from. Whenever
// worker w is idle with work in sight — its own queue, or the central
// queue when that is empty — the engine hands the selector the head
// query's account load (Monitor's reading; 0 with no Monitor), the n
// queries visible and the slack of the tightest deadline a batch could
// hold. The selector names the model and the batch size; the
// shared dispatch core (internal/sched) validates the answer, applies the
// degrade clamp and caps the batch, and the engine pops what is left.
type Scheme struct {
	Monitor  monitor.Monitor
	Balancer lb.Balancer
	// Select serves every worker, unless PerWorker is set: then worker w
	// runs PerWorker[w] (heterogeneous deployments, NewHeteroRAMSIS).
	Select    sched.Selector
	PerWorker []sched.Selector
}

// Scheduler is what NewEngine takes: anything that describes its Scheme.
// models is the engine's profile set, for a scheme that names its model by
// index (FixedModel).
type Scheduler interface {
	Scheme(models profile.Set) Scheme
}

// Scheme returns s, so a Scheme literal is a Scheduler.
func (s Scheme) Scheme(profile.Set) Scheme { return s }

// LatencyModel yields the realized inference latency for a decision.
// Deterministic models return the p95 profile (the paper's simulator);
// stochastic models add the latency variance the prototype observes.
type LatencyModel interface {
	Latency(p profile.Profile, batch int, rng *rand.Rand) float64
}

// Deterministic replays the profiled p95 latency exactly.
type Deterministic struct{}

// Latency returns the profiled batch latency.
func (Deterministic) Latency(p profile.Profile, batch int, _ *rand.Rand) float64 {
	return p.BatchLatency(batch)
}

// Stochastic samples latency as Normal(p95 − 1.645σ, σ) truncated below,
// modeling the ~10 ms standard deviation the paper measures during
// profiling (§7.3.1): the tabulated profile is the 95th percentile, so the
// sampled mean sits 1.645σ below it. For very fast operations the effective
// σ is capped at 15% of the profile so the mean stays physical.
type Stochastic struct {
	StdDev float64 // seconds; the paper observes ~0.010
}

// EffectiveStdDev returns the σ actually applied for a given p95 latency.
func (s Stochastic) EffectiveStdDev(p95 float64) float64 {
	if cap := 0.15 * p95; s.StdDev > cap {
		return cap
	}
	return s.StdDev
}

// Latency samples a realized latency.
func (s Stochastic) Latency(p profile.Profile, batch int, rng *rand.Rand) float64 {
	p95 := p.BatchLatency(batch)
	sd := s.EffectiveStdDev(p95)
	mean := p95 - 1.645*sd
	floor := p95 * 0.25
	v := mean + sd*rng.NormFloat64()
	if v < floor {
		v = floor
	}
	return v
}

// Tally counts a stream of queries by how each ended. The engine keeps one
// per tenant account — violations judged against the tenant's own SLO —
// and a run's totals are their sum.
type Tally struct {
	Served     int
	Violations int
	SatAccSum  float64
	Unserved   int
	Dropped    int
	// Shed counts queries the admission controller rejected at arrival;
	// they were never enqueued and the client was told to back off. Shed
	// queries count against GoodputRate (they are offered work the system
	// declined) but not ViolationRate (no latency promise was made).
	Shed int
}

// Answer counts one answered query: a violation, or accuracy earned.
func (t *Tally) Answer(violated bool, accuracy float64) {
	t.Served++
	if violated {
		t.Violations++
	} else {
		t.SatAccSum += accuracy
	}
}

// Offered counts every query presented, whether served, shed, dropped, or
// left unserved.
func (t Tally) Offered() int {
	return t.Served + t.Shed + t.Dropped + t.Unserved
}

// GoodputRate is the fraction of all offered queries answered within the
// SLO — the metric overload protection optimizes. Without admission
// control every query is "served" eventually, so an overloaded run can
// report 100% service while approaching 0% goodput; shedding the
// unmeetable excess keeps the admitted queries inside their deadlines and
// raises this number even though fewer queries are answered.
func (t Tally) GoodputRate() float64 {
	off := t.Offered()
	if off == 0 {
		return 0
	}
	return float64(t.Served-t.Violations) / float64(off)
}

// Metrics aggregates a run per the paper's performance metrics (§7):
// latency SLO violation rate over all serviced queries and accuracy per
// satisfied query.
type Metrics struct {
	Tally
	Decisions int
	// DegradedDecisions counts dispatch decisions whose model choice was
	// clamped to a faster model by degraded-mode serving.
	DegradedDecisions int
	// SelectFallbacks counts dispatch decisions where the scheduler named a
	// model the worker does not load (or a batch below one) and the batch
	// ran on the fallback model instead. Non-zero means a mis-wired policy;
	// an experiment should fail on it, the way serve's Replay does.
	SelectFallbacks int
	// FailedDispatches counts queries whose batch could not be delivered
	// to any worker (serve layer only: connection error or non-2xx on the
	// picked worker and on the one-shot failover target). They are also
	// counted in Served and Violations, so ViolationRate reflects them.
	FailedDispatches int
	// LatencyP50/P95/P99 are response-latency percentiles in seconds,
	// always populated by Engine.Run: exact (stats.Percentile) when
	// CollectLatencies is on, otherwise from the engine's log-bucketed
	// histogram.
	LatencyP50  float64
	LatencyP95  float64
	LatencyP99  float64
	Latencies   []float64 // response latencies, if collection was enabled
	ModelCounts map[string]int
	DecisionLog []DecisionRecord
	// Tenants breaks the run down per tenant. Populated only when the
	// engine tracks tenants (TenantSLOs or FairAdmit set); nil otherwise.
	Tenants map[string]*Tally
}

// DecisionRecord is one logged MS&S decision.
type DecisionRecord struct {
	Time   float64
	Worker int
	Model  string
	Batch  int
	// QueueLen is the number of queries visible to the scheduler when the
	// decision was made (Batch == QueueLen marks a maximal-batch decision).
	QueueLen int
	// Slack is the earliest served query's remaining deadline headroom at
	// decision time.
	Slack float64
}

// ViolationRate is the fraction of serviced queries that missed their
// deadline; dropped queries and unserved leftovers count as violations.
func (m Metrics) ViolationRate() float64 {
	total := m.Served + m.Unserved + m.Dropped
	if total == 0 {
		return 0
	}
	return float64(m.Violations+m.Unserved+m.Dropped) / float64(total)
}

// ShedRate is the fraction of offered queries rejected at admission.
func (m Metrics) ShedRate() float64 {
	off := m.Offered()
	if off == 0 {
		return 0
	}
	return float64(m.Shed) / float64(off)
}

// AccuracyPerSatisfiedQuery is the mean profiled accuracy over queries that
// met their deadline.
func (m Metrics) AccuracyPerSatisfiedQuery() float64 {
	sat := m.Served - m.Violations
	if sat <= 0 {
		return 0
	}
	return m.SatAccSum / float64(sat)
}

// Engine is the discrete-event simulator core.
type Engine struct {
	Profiles profile.Set
	SLO      float64
	Workers  int
	Latency  LatencyModel
	Sched    Scheduler
	// CollectLatencies records every response latency (needed by the
	// ModelSwitching offline profiler).
	CollectLatencies bool
	// DropExpired discards queries whose deadline has already passed
	// instead of serving them late — the Clockwork/Nexus behaviour §4.3.1
	// notes RAMSIS composes with. The paper's evaluation keeps it off
	// ("better served late than never"); dropped queries count as
	// violations in the metrics.
	DropExpired bool
	// RecordDecisions appends every MS&S decision to Metrics.DecisionLog
	// (used by the Fig. 2 timeline reproduction).
	RecordDecisions bool
	// WorkerProfiles optionally overrides Profiles per worker for
	// heterogeneous deployments (§7: worker homogeneity is not fundamental
	// — RAMSIS derives policies per worker). When set it must have one
	// entry per worker, each with the same model names as Profiles.
	WorkerProfiles []profile.Set
	// Telemetry optionally records the same counters and stage histograms
	// the serve layer exposes (ramsis_queries_total, ramsis_stage_seconds,
	// ...), so a simulated run and a live run are directly comparable on
	// identical metric names — the §7.3.1 fidelity claim as dashboards see
	// it. The sim has no HTTP hops, so only the batch_wait and inference
	// stages carry non-trivial mass.
	Telemetry *telemetry.Registry
	// Admit, when set, screens every arrival before it is routed: shed
	// queries never enqueue and count in Metrics.Shed. The serve frontend
	// runs the same admitters, answering 429 instead.
	Admit admit.Admitter
	// Degrade, when set, closes the degraded-mode loop: admission
	// outcomes feed its pressure windows, and its level clamps every
	// decision's model to progressively faster ones while overload is
	// confirmed (admit.ClampModel over Profiles.SpeedOrder()).
	Degrade *admit.Degrader
	// TenantSLOs, when set, gives each tenant its own SLO — for the
	// decision slack, DropExpired purging and the violation judgement
	// alike — and enables per-tenant metrics. Queries whose tenant is
	// absent fall back to the engine SLO. The policy stays engine-wide:
	// per-tenant policy selection is the serve plane's job (and the
	// multislo example's, per class).
	TenantSLOs map[string]float64
	// FairAdmit, when set, replaces Admit with per-tenant weighted-fair
	// admission (internal/tenant's FairAdmitter) and enables per-tenant
	// metrics.
	FairAdmit sched.Admitter
	// Traces, when set, rings one trace fragment per completed (or shed)
	// query, process "sim", with the same span stages the serve plane
	// records. Trace IDs are derived from query IDs ("sim-<id>"), never from
	// the engine rng, so tracing cannot perturb the latency noise stream.
	Traces *telemetry.TraceBuffer
	// TraceWriter, when set, additionally streams the fragments as JSONL —
	// the same format `ramsis-trace -stitch` merges.
	TraceWriter *telemetry.TraceWriter
	// Decisions, when set, records every policy decision — admit/shed,
	// degrade clamp, model select — with the inputs it saw and the realized
	// latency, mirroring the serve plane's /debug/decisions ring.
	Decisions *telemetry.DecisionBuffer

	rng     *rand.Rand
	scheme  Scheme // Sched's description, read at the start of every run
	central []Query
	wq      [][]Query
	// inflight[w] is the batch worker w is serving, with no queries while it
	// is idle. Its storage is reused batch after batch: a worker has one
	// batch in flight, and complete is done with it before the worker is
	// offered work again.
	inflight []batch
	// lens[w] is worker w's outstanding work, len(wq[w]) +
	// len(inflight[w].queries): the balancer's input, kept current by every
	// enqueue, dispatch, completion and drop.
	lens        []int
	outstanding int      // every query admitted and not yet completed or dropped
	idle        []uint64 // bit w set while worker w has no batch in flight
	// counts[s][m] is the queries served on model m of profile set s (one
	// set, or one per worker with WorkerProfiles, whose sets need not list
	// the models alike); finishMetrics folds it into ModelCounts.
	counts  [][]int
	events  eventQueue
	metrics Metrics
	latHist *telemetry.Histogram // always on; backs the Metrics percentiles
	core    *sched.Core          // admit, decide and finish; rebuilt every run
	one     [1]profile.Set       // backs the core's profile list without WorkerProfiles, so a run does not allocate it
	// accts are the accounts in first-arrival order: one per tenant label
	// when tenants are tracked, else the single unnamed one. They outlive a
	// run, so a reused engine never registers a tenant's SLO gauges twice.
	accts        []*account
	last         *account // the account resolved last, almost always the next one too
	trackTenants bool     // per-tenant accounting enabled for this run
	// traceArrivals marks a run whose admission records need trace IDs: an
	// admitter screens arrivals and the core is attributing.
	traceArrivals bool
	win           window // the queue under decision, as the core sees it

	// rest is the arrivals still to come, in arrival order: step takes its
	// head, and a token worker's decode run ends before it.
	rest []Query

	tokens *tokenWorkers       // an LLMEngine's workers; nil for scalar workers
	kind   workerKind          // the worker kind begin chose
	reg    *telemetry.Registry // what the core and the accounts record into
}

// workerKind is what differs between the scalar kind, *Engine, and the token
// kind, *tokenWorkers; begin chooses one per run.
type workerKind interface {
	enqueue(w int, q Query)   // queue an admitted query on worker w
	start(now float64, w int) // start work on idle worker w if it has any, pushing its completion
	complete(ev event)        // land a completion and idle its worker
}

// account is one tenant's sched.Account with the tally Metrics reports.
type account struct {
	sched.Account
	m Tally
}

// window shows the core one queue as a sched.Window: each query's deadline
// is its arrival plus its own account's SLO.
type window struct {
	e *Engine
	q *[]Query
}

func (w *window) Len() int { return len(*w.q) }

func (w *window) Deadline(i int) float64 {
	q := &(*w.q)[i]
	return q.Arrival + w.e.account(q.Tenant).SLO
}

// simTraceID derives the deterministic trace ID for a simulated query.
func simTraceID(id int) string { return fmt.Sprintf("sim-%d", id) }

// SLOTracker returns the tenant's attainment tracker ("default" also names
// the unnamed tenant), or nil when Telemetry is unset or the tenant never
// arrived. Tests cross-check the exposed burn rates against it.
func (e *Engine) SLOTracker(tenant string) *telemetry.SLOTracker {
	for _, a := range e.accts {
		if a.Name == tenant || (a.Name == "" && tenant == "default") {
			return a.Attainment
		}
	}
	return nil
}

// sloFor returns the SLO a tenant's queries are judged against: its own,
// when registered, else the engine-wide one.
func (e *Engine) sloFor(tenant string) float64 {
	if s, ok := e.TenantSLOs[tenant]; ok {
		return s
	}
	return e.SLO
}

// account resolves a query's tenant label to its account, opening one on a
// tenant's first arrival. Without tenant tracking every label resolves to
// the one unnamed account.
func (e *Engine) account(tenant string) *account {
	if !e.trackTenants {
		tenant = ""
	}
	if a := e.last; a != nil && a.Name == tenant {
		return a
	}
	// A run has a handful of tenants; a scan beats hashing the label.
	for _, a := range e.accts {
		if a.Name == tenant {
			e.last = a
			return a
		}
	}
	a := &account{Account: sched.NewAccount(e.reg, tenant, e.sloFor(tenant), nil)}
	a.Degrade, a.Monitor = e.Degrade, e.scheme.Monitor
	e.accts = append(e.accts, a)
	e.last = a
	return a
}

// NewEngine builds a simulator. Seed fixes the latency-noise stream.
func NewEngine(profiles profile.Set, slo float64, workers int, lat LatencyModel, sched Scheduler, seed int64) *Engine {
	e := &Engine{Profiles: profiles, Latency: lat, Sched: sched}
	e.initWorkers(slo, workers)
	e.rng = rand.New(rand.NewSource(seed))
	e.wq, e.inflight = make([][]Query, workers), make([]batch, workers)
	return e
}

// initWorkers sets what both worker kinds keep per engine: the SLO, the
// worker count, and every worker idle with nothing outstanding.
func (e *Engine) initWorkers(slo float64, workers int) {
	if workers < 1 {
		panic(fmt.Sprintf("sim: invalid worker count %d", workers))
	}
	e.SLO, e.Workers = slo, workers
	e.lens = make([]int, workers)
	e.idle = make([]uint64, (workers+63)/64)
	for w := 0; w < workers; w++ {
		e.idle[w/64] |= 1 << (w % 64)
	}
}

// begin sets a run up: it picks the worker kind, reads the scheme, builds
// the dispatch core and resets the metrics and the accounts' tallies.
func (e *Engine) begin() {
	cfg := sched.Config{
		Profiles: e.WorkerProfiles, Admit: e.FairAdmit,
		Telemetry: e.Telemetry, Decisions: e.Decisions,
		Traces: e.Traces, TraceWriter: e.TraceWriter, Process: "sim",
	}
	if cfg.Profiles == nil {
		e.one[0] = e.Profiles
		cfg.Profiles = e.one[:]
	}
	e.kind = e
	if e.tokens != nil {
		// A batcher chooses its steps and records its queries' series: the
		// core gets no profiles, and no registry to count them twice in.
		e.kind, cfg.Profiles, cfg.Telemetry = e.tokens, nil, nil
		e.tokens.begin()
	}
	e.reg = cfg.Telemetry
	e.scheme = e.Sched.Scheme(e.Profiles)
	e.trackTenants = e.TenantSLOs != nil || e.FairAdmit != nil
	e.metrics = Metrics{ModelCounts: map[string]int{}}
	e.latHist = telemetry.NewHistogram(telemetry.DefaultLatencyBuckets())
	if cfg.Admit == nil {
		cfg.Admit = sched.Plain(e.Admit)
	}
	e.core = sched.New(cfg)
	e.traceArrivals = cfg.Admit != nil && e.core.Attributing()
	sched.WireDegrade(e.reg, e.Degrade)
	for _, a := range e.accts {
		a.m, a.SLO, a.Degrade, a.Monitor = Tally{}, e.sloFor(a.Name), e.Degrade, e.scheme.Monitor
	}
	e.counts = e.counts[:0]
	for _, set := range cfg.Profiles {
		e.counts = append(e.counts, make([]int, set.Len()))
	}
	e.events.reset(e.Workers)
}

// route queues an admitted arrival — on the worker the balancer picks, else
// centrally — and returns the one worker that may start it now: the
// balancer's pick, or for the central queue the lowest-index idle worker
// (-1 when every worker is busy). The balancer sees every worker's
// outstanding work — queued plus in-service queries, a token worker's
// tokens. In-service work must count: under maximal batching a busy
// worker's queue reads empty the moment it pops, and a balancer looking at
// queued work alone would keep stacking arrivals on it while idle workers
// starve. Simulated workers never fail, so the health mask is nil.
func (e *Engine) route(q Query) int {
	if e.scheme.Balancer == nil {
		e.central = append(e.central, q)
		e.outstanding++
		return e.firstIdle()
	}
	w := e.scheme.Balancer.Pick(e.lens, nil)
	e.kind.enqueue(w, q)
	return w
}

// enqueue appends q to scalar worker w's queue.
func (e *Engine) enqueue(w int, q Query) {
	e.wq[w] = append(e.wq[w], q)
	e.lens[w]++
	e.outstanding++
}

// firstIdle returns the lowest-index worker with no batch in flight, or -1.
func (e *Engine) firstIdle() int {
	for i, word := range e.idle {
		if word != 0 {
			return i*64 + bits.TrailingZeros64(word)
		}
	}
	return -1
}

// pop removes q's first n queries by copying the rest to the front, so the
// queue keeps its storage and the appends that follow do not reallocate.
func pop(q *[]Query, n int) {
	*q = (*q)[:copy(*q, (*q)[n:])]
}

// batch is a scalar worker's batch in flight.
type batch struct {
	queries []Query
	start   float64 // dispatch time, for the batch_wait/inference split
	model   int     // index into the worker's profile set
	// dec is the select decision that produced this batch, completed and
	// attached to each query's trace fragment on completion; nil when
	// attribution is off.
	dec *telemetry.Decision
}

// event ends a worker's batch or token step; the work stays with the worker.
type event struct {
	time   float64
	worker int
}

// eventQueue is a typed binary min-heap of completions ordered by time,
// ties lowest worker first. It replaces container/heap's interface{}-boxed
// API in the simulator's hottest loop: push and pop sift directly on a
// concrete slice preallocated to the worker count (each worker has at most
// one completion pending), so steady-state event traffic allocates nothing.
type eventQueue struct {
	ev []event
}

// reset empties the queue, preallocating room for capacity events.
func (q *eventQueue) reset(capacity int) {
	if cap(q.ev) < capacity {
		q.ev = make([]event, 0, capacity)
		return
	}
	q.ev = q.ev[:0]
}

func (q *eventQueue) len() int { return len(q.ev) }

// nextTime returns the earliest event time; the queue must be non-empty.
func (q *eventQueue) nextTime() float64 { return q.ev[0].time }

// before reports whether event i pops before event j.
func (q *eventQueue) before(i, j int) bool {
	a, b := &q.ev[i], &q.ev[j]
	return a.time < b.time || a.time == b.time && a.worker < b.worker
}

// push inserts an event (sift-up).
func (q *eventQueue) push(e event) {
	q.ev = append(q.ev, e)
	i := len(q.ev) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !q.before(i, parent) {
			break
		}
		q.ev[parent], q.ev[i] = q.ev[i], q.ev[parent]
		i = parent
	}
}

// pop removes and returns the earliest event (sift-down).
func (q *eventQueue) pop() event {
	top := q.ev[0]
	last := len(q.ev) - 1
	q.ev[0] = q.ev[last]
	q.ev = q.ev[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < len(q.ev) && q.before(l, min) {
			min = l
		}
		if r < len(q.ev) && q.before(r, min) {
			min = r
		}
		if min == i {
			break
		}
		q.ev[i], q.ev[min] = q.ev[min], q.ev[i]
		i = min
	}
	return top
}

// Run simulates the given arrival times (seconds, ascending) and returns the
// aggregated metrics. The trace is drained fully: after the last arrival the
// engine keeps dispatching until every queue is empty.
func (e *Engine) Run(arrivals []float64) Metrics {
	qs := make([]Query, len(arrivals))
	for i, t := range arrivals {
		qs[i] = Query{ID: i, Arrival: t}
	}
	return e.RunQueries(qs)
}

// RunQueries simulates a prepared query stream (ascending arrival times,
// optionally tenant-labeled — tenant.Arrivals produces one) and returns
// the aggregated metrics. Run is the unlabeled convenience wrapper.
func (e *Engine) RunQueries(queries []Query) Metrics {
	e.begin()
	for e.rest = queries; e.step(); {
	}
	e.rest = nil
	e.finishMetrics()
	return e.metrics
}

// step handles the next event — the arrival at the head of rest, or the
// earliest batch completion, the arrival first on a tie — and reports
// whether there was one.
func (e *Engine) step() bool {
	switch {
	case len(e.rest) > 0 && (e.events.len() == 0 || e.rest[0].Arrival <= e.events.nextTime()):
		q, w := e.rest[0], -1
		e.rest = e.rest[1:]
		if e.arrive(q) {
			w = e.route(q)
		}
		e.offer(q.Arrival, w)
		return true
	case e.events.len() > 0:
		ev := e.events.pop()
		e.kind.complete(ev)
		e.offer(ev.time, ev.worker)
		return true
	}
	return false
}

// Outstanding counts every query admitted but not yet completed: central
// queue, worker queues, and in-flight batches. This is the backlog the
// admitter's wait estimate drains (sched.Backlog).
func (e *Engine) Outstanding() int { return e.outstanding }

// arrive runs one arrival through the core's arrival step on its account
// and reports whether it may be routed; a shed query counts in the
// account's tally.
func (e *Engine) arrive(q Query) bool {
	in := sched.Arrival{ID: q.ID, Time: q.Arrival, Backlog: e}
	if e.traceArrivals {
		in.TraceID = simTraceID(q.ID)
	}
	a := e.account(q.Tenant)
	if e.core.Arrive(&a.Account, in).Admit {
		return true
	}
	a.m.Shed++
	return false
}

// purgeExpired drops already-late queries from every queue head (FIFO
// order puts the oldest deadlines in front; with per-tenant SLOs the heads
// are checked against their own deadlines).
func (e *Engine) purgeExpired(now float64) {
	e.outstanding -= e.dropExpired(&e.central, now)
	for w := range e.wq {
		n := e.dropExpired(&e.wq[w], now)
		e.lens[w] -= n
		e.outstanding -= n
	}
}

// dropExpired drops q's late head queries, counting each on its account,
// and returns how many it dropped.
func (e *Engine) dropExpired(q *[]Query, now float64) int {
	n := 0
	for ; n < len(*q); n++ {
		a := e.account((*q)[n].Tenant)
		if (*q)[n].Arrival+a.SLO >= now {
			break
		}
		a.m.Dropped++
	}
	if n > 0 {
		pop(q, n)
	}
	return n
}

// offer ends an event at now: under DropExpired it purges late queries,
// then it offers work to w, the one worker whose work in sight the event
// changed (-1 for none).
//
// One worker suffices because every event ends with no idle worker having
// work in sight: its own queue is empty (a token worker's batcher is idle),
// and the central queue is empty whenever any worker is idle. An event
// changes what one worker sees — an arrival joins the queue of the worker
// the balancer picked, or the central queue, which the lowest-index idle
// worker is first to see; a completion idles the worker that finished — a
// purge only removes work, and sched.Core.Decide always starts at least one
// query (llm.Batcher.Begin a step, unless it rejected everything waiting).
// So a scan over every worker in index order would find only w, with the
// same decision and the same latency draw.
func (e *Engine) offer(now float64, w int) {
	if e.DropExpired {
		e.purgeExpired(now)
	}
	if w >= 0 && e.idle[w/64]&(1<<(w%64)) != 0 {
		e.kind.start(now, w)
	}
}

// start makes one MS&S decision for idle scalar worker w over its own
// queue, or the central queue when that is empty, and starts the batch: the
// scheme's selector chooses, the core decides what actually runs, the
// engine pops it and schedules its completion.
func (e *Engine) start(now float64, w int) {
	q := &e.wq[w]
	if len(*q) == 0 {
		q = &e.central
	}
	if len(*q) == 0 {
		return
	}
	e.win = window{e, q}
	n, deadline := e.core.Tightest(w, &e.win)
	head := &e.account((*q)[0].Tenant).Account
	ch := sched.Choice{Now: now, Worker: w, QueueLen: n, Slack: deadline - now, Load: head.Load(now), Head: head}
	sel := e.scheme.Select
	if e.scheme.PerWorker != nil {
		sel = e.scheme.PerWorker[w]
	}
	ch.Model, ch.Batch = sel(now, ch.Load, n, ch.Slack)
	var dec *telemetry.Decision
	if e.core.Attributing() {
		dec, ch.TraceID = new(telemetry.Decision), simTraceID((*q)[0].ID)
	}
	pick := e.core.Decide(ch, dec)
	if pick.Clamped {
		e.metrics.DegradedDecisions++
	}
	if pick.Fallback {
		e.metrics.SelectFallbacks++
	}
	p := e.core.Profile(w, pick.Model)
	lat := e.Latency.Latency(*p, pick.Batch, e.rng)
	b := &e.inflight[w]
	b.queries = append(b.queries[:0], (*q)[:pick.Batch]...)
	b.start, b.model, b.dec = now, pick.Model, dec
	pop(q, pick.Batch)
	if q == &e.central {
		e.lens[w] += pick.Batch
	}
	e.idle[w/64] &^= 1 << (w % 64)
	e.events.push(event{time: now + lat, worker: w})
	if e.RecordDecisions {
		e.metrics.DecisionLog = append(e.metrics.DecisionLog, DecisionRecord{
			Time:     now,
			Worker:   w,
			Model:    p.Name,
			Batch:    pick.Batch,
			QueueLen: n,
			Slack:    ch.Slack,
		})
	}
}

// complete records a finished batch and idles its worker: the core accounts
// the batch and judges every query; the engine folds the outcomes into its
// Metrics.
func (e *Engine) complete(ev event) {
	w, b := ev.worker, &e.inflight[ev.worker]
	n := len(b.queries)
	p := e.core.Profile(w, b.model)
	pick := sched.Pick{Model: b.model, Batch: n}
	fin := e.core.Finish(pick, b.dec, w, ev.time-b.start, ev.time, true)
	e.metrics.Decisions++
	if len(e.counts) == 1 {
		e.counts[0][b.model] += n
	} else {
		e.counts[w][b.model] += n
	}
	var batchWait *telemetry.Histogram
	if tel := e.core.Series(); tel != nil {
		tel.Stage[telemetry.StageInference].Observe(ev.time - b.start)
		batchWait = tel.Stage[telemetry.StageBatchWait]
	}
	tracing := e.core.Tracing()
	for _, q := range b.queries {
		traceID := ""
		if tracing {
			traceID = simTraceID(q.ID)
		}
		a := e.account(q.Tenant)
		lat, violated := fin.Query(&a.Account, q.Arrival, traceID)
		e.serve(a, lat, violated, p.Accuracy)
		if batchWait != nil {
			batchWait.Observe(b.start - q.Arrival)
		}
		if tracing {
			e.core.Trace(telemetry.QueryTrace{
				ID: q.ID, Arrival: q.Arrival, Worker: ev.worker,
				Model: p.Name, Batch: n,
				LatencyMS: lat * 1000, DeadlineMet: !violated,
				TraceID: traceID, Tenant: q.Tenant,
				Decision: b.dec,
			}, []telemetry.Span{
				{Stage: telemetry.StageBatchWait, Seconds: b.start - q.Arrival},
				{Stage: telemetry.StageInference, Seconds: ev.time - b.start},
			})
		}
	}
	b.queries = b.queries[:0]
	e.lens[w] -= n
	e.outstanding -= n
	e.idle[w/64] |= 1 << (w % 64)
}

// serve counts one answered query on its account and in the run's latency
// record.
func (e *Engine) serve(a *account, latency float64, violated bool, accuracy float64) {
	a.m.Answer(violated, accuracy)
	e.latHist.Observe(latency)
	if e.CollectLatencies {
		e.metrics.Latencies = append(e.metrics.Latencies, latency)
	}
}

// percentiles returns the p50, p95 and p99 of a run's observations: exact
// when every one was collected in xs, else from their histogram h.
func (e *Engine) percentiles(xs []float64, h *telemetry.Histogram) (p50, p95, p99 float64) {
	if e.CollectLatencies && len(xs) > 0 {
		return stats.Percentile(xs, 50), stats.Percentile(xs, 95), stats.Percentile(xs, 99)
	}
	return h.Quantile(50), h.Quantile(95), h.Quantile(99)
}

// finishMetrics ends a run: queries still queued count as unserved
// (schedulers normally never leave work behind), the per-model counts fold
// into ModelCounts, the accounts sum into the run totals, and the latency
// percentile fields are filled.
func (e *Engine) finishMetrics() {
	for _, q := range e.central {
		e.account(q.Tenant).m.Unserved++
	}
	for _, left := range e.wq {
		for _, q := range left {
			e.account(q.Tenant).m.Unserved++
		}
	}
	m := &e.metrics
	for s, counts := range e.counts {
		for mi, n := range counts {
			if n > 0 {
				m.ModelCounts[e.core.Profile(s, mi).Name] += n
			}
		}
	}
	if e.trackTenants {
		m.Tenants = map[string]*Tally{}
	}
	for _, a := range e.accts {
		m.Served += a.m.Served
		m.Violations += a.m.Violations
		m.SatAccSum += a.m.SatAccSum
		m.Unserved += a.m.Unserved
		m.Dropped += a.m.Dropped
		m.Shed += a.m.Shed
		if e.trackTenants {
			tm := a.m // a copy: the account outlives the run
			m.Tenants[a.Name] = &tm
		}
	}
	m.LatencyP50, m.LatencyP95, m.LatencyP99 = e.percentiles(m.Latencies, e.latHist)
}
