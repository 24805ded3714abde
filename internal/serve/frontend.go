package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ramsis/internal/admit"
	"ramsis/internal/lb"
	"ramsis/internal/monitor"
	"ramsis/internal/profile"
	"ramsis/internal/sched"
	"ramsis/internal/sim"
	"ramsis/internal/telemetry"
	"ramsis/internal/tenant"
)

// QueryResponse is the client-facing result of one inference query.
type QueryResponse struct {
	ID          int     `json:"id"`
	Model       string  `json:"model"`
	Batch       int     `json:"batch"`
	LatencyMS   float64 `json:"latencyMs"` // modeled response latency
	DeadlineMet bool    `json:"deadlineMet"`
	// Error is set when the batch could not be delivered to any worker
	// (the dispatch failed on the picked worker and on the failover
	// target); the query counts as a violation.
	Error string `json:"error,omitempty"`
}

// StatsResponse is the /stats snapshot. Every count is read from the same
// telemetry registry that backs /metrics, so the two views agree by
// construction. On a plane shard the registry is the plane's and its query
// counters carry no shard label, so Served, Violations, FailedDispatches,
// Accuracy and ViolationRate are plane-wide totals; Shed and DegradeLevel
// are 0, as admission and degrading are per tenant (GatewayStats.Tenants).
type StatsResponse struct {
	Served        int     `json:"served"`
	Violations    int     `json:"violations"`
	Accuracy      float64 `json:"accuracyPerSatisfiedQuery"`
	ViolationRate float64 `json:"violationRate"`
	QueueLengths  []int   `json:"queueLengths"`
	// FailedDispatches counts queries whose batch reached no worker even
	// after failover; they are included in Served and Violations.
	FailedDispatches int `json:"failedDispatches"`
	// WorkerHealthy is the health tracker's current per-worker mark.
	WorkerHealthy []bool `json:"workerHealthy"`
	// WorkerDispatches counts /infer POSTs attempted per worker (failover
	// retries count against the worker they were sent to).
	WorkerDispatches []int `json:"workerDispatches"`
	// Shed counts queries the admission controller rejected with 429; they
	// are not included in Served.
	Shed int `json:"shed"`
	// DegradeLevel is the current degraded-mode level (0 = the policy's own
	// model choice; level k forbids the k slowest models).
	DegradeLevel int `json:"degradeLevel"`
}

// Frontend is the client-facing half of the prototype: applications POST
// /query and block until their prediction returns, exactly the Fig. 1 flow
// (central queue -> load balancer -> worker queue -> model selector ->
// worker). It is the one serve dispatch loop: live clients reach it over
// HTTP, in-process injectors through Enqueue, and trace replay through
// Replay, which paces a trace into Enqueue.
//
// Routing goes through a pluggable lb.Balancer over per-worker queues,
// masked by an lb.HealthTracker: workers that fail consecutive health
// probes (or dispatches) stop receiving traffic until they recover, and a
// batch whose dispatch fails is retried once on another healthy worker
// before its queries are recorded as violations.
//
// Observability: every query carries a six-stage span trace
// (enqueue/pick/batch_wait/dispatch/inference/respond) recorded into the
// Telemetry registry's ramsis_stage_seconds histograms and the Traces ring
// buffer; /metrics serves the registry in Prometheus text format,
// /debug/traces dumps the ring, and /debug/pprof is wired for profiling.
type Frontend struct {
	Profiles  profile.Set
	SLO       float64
	TimeScale float64
	Workers   []string
	Select    sched.Selector
	Monitor   monitor.Monitor
	// Balancer picks the worker queue for each arriving query; default
	// round-robin, matching the §3.2.1 policy assumption. Start wraps it
	// with pick-latency instrumentation.
	Balancer lb.Balancer
	// Addr is the listen address; default "127.0.0.1:0" (random port).
	Addr string
	// process serves /metrics from the registry /stats also reads, and
	// rings every completed query's trace at /debug/traces. Its clock
	// stamps every arrival, decision and span.
	process
	// Decisions is the policy-decision ring behind /debug/decisions; Start
	// builds one (DefaultDecisionCapacity) when nil. A sharded cluster
	// passes one shared ring so the gateway serves the merged view.
	Decisions *telemetry.DecisionBuffer
	// Admit, when set, screens every arriving query before it is routed:
	// shed queries are answered 429 with a Retry-After hint instead of
	// being enqueued. The simulator engine runs the same admitters.
	Admit admit.Admitter
	// Degrade, when set, closes the degraded-mode loop: admission outcomes
	// feed its pressure windows, and its level clamps the selector's model
	// choice to progressively faster models while overload is confirmed.
	Degrade *admit.Degrader
	// RetryBudget, when set, gates dispatch failover: once the budget is
	// exhausted a failed batch fails fast instead of doubling the load on
	// the surviving workers mid-overload.
	RetryBudget *admit.RetryBudget
	// Plane, when set, runs this frontend as one shard of a multi-tenant
	// deployment: arrivals resolve to a tenant whose own SLO, selector,
	// rate monitor, degrader, and weighted-fair admission replace the
	// frontend-wide Admit/Degrade/Monitor/Select/SLO fields. The plane is
	// shared across shards, and the shard's trace fragments name the
	// gateway as their parent. A shard binds no listener: the gateway
	// enqueues on it in process and serves the plane's merged endpoints.
	Plane *TenantPlane
	// Shard is this frontend's shard index in a sharded deployment
	// (informational; 0 when unsharded).
	Shard int
	// WorkerOffset shifts the worker metric labels so shards sharing one
	// telemetry registry keep distinct per-worker series: shard-local
	// worker w is exposed as worker WorkerOffset+w.
	WorkerOffset int

	closed atomic.Bool
	nextID atomic.Int64
	wq     []*workerQueue
	// health masks workers that fail consecutive probes or dispatches out
	// of the balancer's pick; Start builds it, Stop stops it.
	health *lb.HealthTracker
	// healthInterval is the wall-clock period at which the health tracker
	// probes Workers' /healthz: 500 ms divided by TimeScale (at least
	// 5 ms), so detection latency compresses with modeled time, unless a
	// test set a shorter one before Start.
	healthInterval time.Duration
	// probes are the health tracker's per-worker probe states, each owned
	// by its worker's probe loop.
	probes []prober
	// core is the dispatch core this frontend drives: the arrival step, the
	// batch decision and per-query finish are the code sim.Engine runs.
	core *sched.Core
	// admitter is the core's admitter (nil when none): the plane's fair
	// admitter, else Admit. Its Name is in every 429 body.
	admitter sched.Admitter
	// Series only the frontend has (the query path's are sched.Series):
	// the failover retry budget's grants and refusals, and /infer POSTs
	// per worker, which back both the exposition and
	// StatsResponse.WorkerDispatches so they cannot drift.
	retries, retriesDenied *telemetry.Counter
	workerDispatch         []*telemetry.Counter
	// stages caches sched.Series.Stage in telemetry.Stages order: six map
	// lookups per query are measurable at saturation.
	stages [6]*telemetry.Histogram
	// name is this frontend's process name in trace fragments: "shard-<i>"
	// in a sharded plane, "frontend" standalone.
	name string
	// single is the one account of a single-tenant frontend, built from the
	// frontend-wide SLO, Select, Monitor (locked) and Degrade fields; in
	// plane mode arrivals resolve to the plane's per-tenant states instead.
	single *tenantState
	// picks recycles the queue-length and health snapshots the balancer
	// reads on every enqueue, so routing a query allocates nothing.
	picks sync.Pool
	// inferURLs pre-parses each worker's /infer endpoint so dispatch does
	// not concatenate or parse URL strings per POST.
	inferURLs []*url.URL

	loops sync.WaitGroup
}

// maxProbeTimeout caps the deadline of one health probe, which is
// otherwise the probe interval.
const maxProbeTimeout = 2 * time.Second

// prober is one worker's health probe: a body-less POST /healthz through
// the dispatcher's framer, on a connection the probe loop owns and keeps
// alive between probes.
type prober struct {
	postScratch
	u *url.URL
}

// probe checks worker w's /healthz once; any 2xx answer within the
// deadline is healthy. Each prober dials only its own worker, so it keeps
// the connection in slot 0.
func (f *Frontend) probe(w int) bool {
	p := &f.probes[w]
	status, err := p.roundTrip(0, p.u, nil, nil)
	return err == nil && status >= 200 && status < 300
}

// workerQueue is one worker's pending-query queue with its own lock and
// condition variable, so a slow worker's selector loop never serializes
// enqueues for the others. Storage is a growable ring (pqRing): dispatch
// pops by advancing an index instead of re-copying the queue tail, so a
// steady-state enqueue/dispatch cycle never touches the allocator.
type workerQueue struct {
	mu   sync.Mutex
	cond *sync.Cond
	ring pqRing // the sched.Window the core scans, under mu
	// outstanding = queued + in-dispatch queries (until their /infer POST
	// returns, before any is answered), the balancer's view of
	// the worker's load. In-dispatch queries must count: a worker that
	// just popped its whole queue reads as empty, and a queue-aware
	// balancer would keep stacking arrivals on it while others idle.
	outstanding atomic.Int32
}

func (ws *workerQueue) Len() int { return ws.ring.len() }

func (ws *workerQueue) Deadline(i int) float64 {
	pq := ws.ring.at(i)
	return pq.q.Arrival + pq.st.SLO
}

// pickScratch is one enqueue's balancer input snapshot, recycled through
// Frontend.picks.
type pickScratch struct {
	lens    []int
	healthy []bool
}

// dispatchScratch is the per-workerLoop scratch: the popped batch, the
// joined trace-context header, the POST buffers, and the per-batch
// decision and span storage (both copied by the rings they land in, so
// reuse here never aliases recorded data). workerLoop dispatches
// synchronously, so one instance per loop goroutine suffices.
type dispatchScratch struct {
	postScratch
	batch []pendingQuery
	ids   []byte
	dec   telemetry.Decision
	spans [6]telemetry.Span
}

type pendingQuery struct {
	q    sim.Query
	done chan QueryResponse
	// st is the query's tenant state — the frontend's single one outside
	// plane mode; its SLO is the deadline the query is judged against.
	st *tenantState
	// traceID joins this query's fragments across gateway, shard, and
	// worker; propagated to the worker in the X-Trace-Id header.
	traceID string
	// pickSec and enqueuedAt stamp the query's first two span stages
	// (modeled seconds); the dispatch path fills in the rest.
	pickSec    float64
	enqueuedAt float64
}

// Start begins serving on Addr (default a random localhost port).
func (f *Frontend) Start() error {
	if len(f.Workers) == 0 {
		return fmt.Errorf("serve: frontend needs workers")
	}
	f.defaults(&f.TimeScale)
	if f.Decisions == nil {
		f.Decisions = telemetry.NewDecisionBuffer(0)
	}
	cfg := sched.Config{
		Profiles:  []profile.Set{f.Profiles},
		Telemetry: f.Telemetry, Decisions: f.Decisions,
		Traces: f.Traces, TraceWriter: f.TraceWriter,
		Shard: f.Shard, WorkerOffset: f.WorkerOffset,
	}
	if f.Plane != nil {
		f.name, cfg.Parent = fmt.Sprintf("shard-%d", f.Shard), "gateway"
		f.admitter = f.Plane.cfg.Fair
	} else {
		f.name = "frontend"
		f.admitter = sched.Plain(f.Admit)
		f.single = &tenantState{Account: sched.NewAccount(f.Telemetry, "", f.SLO, f.now), sel: f.Select}
		f.single.Degrade = f.Degrade
		if f.Monitor != nil {
			f.single.Monitor = monitor.NewLocked(f.Monitor)
		}
		registerRateGauge(f.Telemetry, f.single, tenant.DefaultName, f.now)
		sched.WireDegrade(f.Telemetry, f.Degrade)
	}
	cfg.Process, cfg.Admit = f.name, f.admitter
	f.core = sched.New(cfg)
	for i, st := range telemetry.Stages() {
		f.stages[i] = f.core.Series().Stage[st]
	}
	f.retries = f.Telemetry.Counter(telemetry.MetricAdmitRetries)
	f.retriesDenied = f.Telemetry.Counter(telemetry.MetricAdmitRetriesDenied)
	for w := range f.Workers {
		f.workerDispatch = append(f.workerDispatch,
			f.Telemetry.Counter(telemetry.MetricWorkerDispatches, "worker", strconv.Itoa(f.WorkerOffset+w)))
	}
	if f.Balancer == nil {
		f.Balancer = lb.NewRoundRobin()
	}
	f.Balancer = lb.Instrumented(f.Balancer, f.Telemetry)
	iv := f.healthInterval
	if iv <= 0 {
		iv = time.Duration(float64(500*time.Millisecond) / f.TimeScale)
		if iv < 5*time.Millisecond {
			iv = 5 * time.Millisecond
		}
	}
	f.health = lb.NewHealthTracker(len(f.Workers), f.probe, lb.HealthConfig{Interval: iv, Telemetry: f.Telemetry})
	registerHealthGauges(f.Telemetry, f.health, len(f.Workers), f.WorkerOffset)
	f.wq = make([]*workerQueue, len(f.Workers))
	for i := range f.wq {
		ws := &workerQueue{}
		ws.cond = sync.NewCond(&ws.mu)
		f.wq[i] = ws
	}
	f.picks.New = func() any {
		return &pickScratch{
			lens:    make([]int, 0, len(f.Workers)),
			healthy: make([]bool, 0, len(f.Workers)),
		}
	}
	f.inferURLs = make([]*url.URL, len(f.Workers))
	f.probes = make([]prober, len(f.Workers))
	for i, u := range f.Workers {
		pu, err := url.Parse(u + "/infer")
		if err != nil {
			return fmt.Errorf("serve: bad worker URL %q: %v", u, err)
		}
		f.inferURLs[i] = pu
		f.probes[i] = prober{
			postScratch: postScratch{net: f.net, timeout: min(iv, maxProbeTimeout)},
			u:           &url.URL{Host: pu.Host, Path: "/healthz"},
		}
	}
	if f.Plane == nil { // a plane shard binds no listener (see Plane)
		mux := http.NewServeMux()
		mux.HandleFunc("/query", entry(f.enqueue).serveHTTP)
		mux.HandleFunc("/stats", f.handleStats)
		mux.Handle("/debug/traces", f.Traces.Handler())
		mux.Handle("/debug/decisions", f.Decisions.Handler())
		if err := f.serve(f.Addr, mux); err != nil {
			return err
		}
	}
	f.health.Start()
	for w := range f.Workers {
		f.loops.Add(1)
		go f.workerLoop(w)
	}
	f.onStop(f.halt)
	return nil
}

// halt refuses new queries, waits for the selector loops to drain their
// queues and exit, and then stops the health tracker and its probes.
func (f *Frontend) halt() error {
	f.closed.Store(true)
	for _, ws := range f.wq {
		ws.mu.Lock()
		ws.cond.Broadcast()
		ws.mu.Unlock()
	}
	f.loops.Wait()
	f.health.Stop()
	for i := range f.probes {
		f.probes[i].closeConns()
	}
	return nil
}

// Stats assembles the current snapshot from the telemetry registry and the
// per-worker queues; it is the single source for the /stats handler, and
// every count in it is read from the registry that serves /metrics.
// Counter reads are individually atomic; a scrape racing an in-flight
// batch may see its served count before its violation count, but the two
// endpoints can never disagree about a settled system.
func (f *Frontend) Stats() StatsResponse {
	qs := make([]int, len(f.wq))
	ds := make([]int, len(f.wq))
	for i, ws := range f.wq {
		ws.mu.Lock()
		qs[i] = ws.ring.len()
		ws.mu.Unlock()
		ds[i] = int(f.workerDispatch[i].Value())
	}
	tel := f.core.Series()
	served := int(tel.Queries.Value())
	violations := int(tel.Violations.Value())
	acc, vr := 0.0, 0.0
	if sat := served - violations; sat > 0 {
		acc = tel.SatAcc.Value() / float64(sat)
	}
	if served > 0 {
		vr = float64(violations) / float64(served)
	}
	shed := 0
	if f.Admit != nil {
		shed = int(tel.Shed.Value())
	}
	level := 0
	if f.Degrade != nil {
		level = f.Degrade.Level()
	}
	return StatsResponse{
		Served:           served,
		Violations:       violations,
		Accuracy:         acc,
		ViolationRate:    vr,
		QueueLengths:     qs,
		FailedDispatches: int(tel.Failed.Value()),
		WorkerHealthy:    f.health.Healthy(),
		WorkerDispatches: ds,
		Shed:             shed,
		DegradeLevel:     level,
	}
}

// queueLensInto snapshots every worker's outstanding load for the
// balancer into the caller's scratch slice.
func (f *Frontend) queueLensInto(lens []int) []int {
	for _, ws := range f.wq {
		lens = append(lens, int(ws.outstanding.Load()))
	}
	return lens
}

// EnqueueError reports why Enqueue refused a query, with the HTTP mapping
// the handlers use.
type EnqueueError struct {
	Status int // HTTP status: 400 unknown tenant, 429 shed, 503 shutdown
	Msg    string
	// RetryAfterSec is the wall-clock back-off hint for 429 responses
	// (already scaled down from modeled seconds by TimeScale).
	RetryAfterSec float64
}

// Error implements error.
func (e *EnqueueError) Error() string { return e.Msg }

// entry is a query entry point — a frontend's enqueue, a gateway's route:
// it admits and routes one query, and done (nil for fire-and-forget
// callers) receives the response. traceID joins this process's fragment to
// the caller's trace; empty generates a fresh one.
type entry func(tenantName, traceID string, done chan QueryResponse) *EnqueueError

// fresh enters one query on a freshly allocated response channel. The
// channel is buffered — dispatch never blocks on a reader — so
// fire-and-forget injectors may abandon it; callers that always consume
// the response should prefer do, which recycles its channel.
func (enter entry) fresh(tenantName string) (<-chan QueryResponse, *EnqueueError) {
	done := make(chan QueryResponse, 1)
	if eerr := enter(tenantName, "", done); eerr != nil {
		return nil, eerr
	}
	return done, nil
}

// do enters one query and blocks until its response arrives — the
// in-process equivalent of POST /query.
func (enter entry) do(tenantName string) (QueryResponse, *EnqueueError) {
	done := donePool.Get().(chan QueryResponse)
	if eerr := enter(tenantName, "", done); eerr != nil {
		donePool.Put(done)
		return QueryResponse{}, eerr
	}
	resp := <-done
	donePool.Put(done)
	return resp, nil
}

// serveHTTP is POST /query: it enters the query and blocks until it is
// served. The tenant comes from the X-Tenant header or ?tenant= parameter
// (multi-tenant mode only), the trace context from X-Trace-Id.
func (enter entry) serveHTTP(rw http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodPost {
		http.Error(rw, "POST required", http.StatusMethodNotAllowed)
		return
	}
	done := donePool.Get().(chan QueryResponse)
	eerr := enter(tenantFromRequest(req), clientTraceID(req), done)
	if eerr != nil {
		donePool.Put(done)
		writeEnqueueError(rw, eerr)
		return
	}
	select {
	case resp := <-done:
		donePool.Put(done)
		rw.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(rw).Encode(resp)
	case <-req.Context().Done():
		// Client went away; the batch still completes and records metrics
		// (the done channel is buffered, so dispatch never blocks on it).
		// The abandoned channel is NOT recycled: dispatch's pending send
		// would poison the next query that drew it from the pool.
	}
}

// maxTraceID bounds the X-Trace-Id a client may set, 4× NewTraceID's 16
// digits: a dispatch carries a batch of trace IDs in one header line, which
// a worker reads into a buffer of fixed size (workerConn.next).
const maxTraceID = 64

// clientTraceID is the request's X-Trace-Id, or "" (a fresh ID) when it is
// longer than maxTraceID or holds a separator of the dispatch's trace
// context (',' between IDs, ';' before the parent).
func clientTraceID(req *http.Request) string {
	id := req.Header.Get("X-Trace-Id")
	if len(id) > maxTraceID || strings.ContainsAny(id, ",;") {
		return ""
	}
	return id
}

// Enqueue admits and routes one query in-process, returning the channel
// its response will be delivered on. tenantName selects the tenant in
// multi-tenant mode ("" resolves to the default tenant); it is ignored
// when no Plane is configured. The HTTP handler, the sharded gateway, and
// load injectors all route through enqueue.
func (f *Frontend) Enqueue(tenantName string) (<-chan QueryResponse, *EnqueueError) {
	return entry(f.enqueue).fresh(tenantName)
}

// Do enqueues one query and blocks until its response arrives; benchmarks
// and tests use it.
func (f *Frontend) Do(tenantName string) (QueryResponse, *EnqueueError) {
	return entry(f.enqueue).do(tenantName)
}

// enqueue runs one query through the core's arrival step and routes it onto
// a worker ring, or answers 429 when it is shed; done (which may be nil for
// fire-and-forget callers) receives the response. This is the
// whole client-visible hot path before dispatch, and it is allocation-flat
// at steady state: the balancer inputs come from the pick pool, the ring
// reuses its slots, and the trace ID is the only per-query allocation.
func (f *Frontend) enqueue(tenantName, traceID string, done chan QueryResponse) *EnqueueError {
	if f.closed.Load() {
		return &EnqueueError{Status: http.StatusServiceUnavailable, Msg: "shutting down"}
	}
	if traceID == "" {
		traceID = telemetry.NewTraceID()
	}
	id := int(f.nextID.Add(1) - 1)
	arrival := f.now()

	st := f.single
	if f.Plane != nil {
		var ok bool
		if st, ok = f.Plane.state(tenantName); !ok {
			return &EnqueueError{Status: http.StatusBadRequest,
				Msg: fmt.Sprintf("unknown tenant %q", tenantName)}
		}
	}
	if v := f.core.Arrive(&st.Account, sched.Arrival{ID: id, Time: arrival, TraceID: traceID, Backlog: f}); !v.Admit {
		// Clients back off in wall time, so the modeled-seconds hint is
		// scaled down by TimeScale.
		return &EnqueueError{
			Status: http.StatusTooManyRequests,
			Msg: "overloaded: shed by " + f.admitter.Name() + " admission (" + string(v.Reason) +
				", est wait " + strconv.FormatFloat(v.EstWait, 'f', 3, 64) + "s)",
			RetryAfterSec: v.RetryAfter / f.TimeScale,
		}
	}

	pickStart := f.now()
	scr := f.picks.Get().(*pickScratch)
	scr.lens = f.queueLensInto(scr.lens[:0])
	scr.healthy = f.health.HealthyInto(scr.healthy[:0])
	w := f.Balancer.Pick(scr.lens, scr.healthy)
	f.picks.Put(scr)
	enqueuedAt := f.now()

	ws := f.wq[w]
	ws.mu.Lock()
	if f.closed.Load() {
		ws.mu.Unlock()
		return &EnqueueError{Status: http.StatusServiceUnavailable, Msg: "shutting down"}
	}
	ws.ring.push(pendingQuery{
		q: sim.Query{ID: id, Arrival: arrival, Tenant: st.Name}, done: done,
		st: st, traceID: traceID,
		pickSec: enqueuedAt - pickStart, enqueuedAt: enqueuedAt,
	})
	ws.outstanding.Add(1)
	ws.cond.Signal()
	ws.mu.Unlock()
	return nil
}

// tenantFromRequest extracts the tenant label: X-Tenant header first, then
// the ?tenant= query parameter; empty means the default tenant.
func tenantFromRequest(req *http.Request) string {
	if tn := req.Header.Get("X-Tenant"); tn != "" {
		return tn
	}
	return req.URL.Query().Get("tenant")
}

// writeEnqueueError maps an EnqueueError onto the HTTP response, with the
// Retry-After hint on 429s.
func writeEnqueueError(rw http.ResponseWriter, e *EnqueueError) {
	if e.Status == http.StatusTooManyRequests {
		rw.Header().Set("Retry-After", strconv.Itoa(admit.RetryAfterSeconds(e.RetryAfterSec)))
	}
	http.Error(rw, e.Msg, e.Status)
}

// Outstanding totals queued plus in-dispatch queries across this shard's
// workers — the admitter's backlog signal (sched.Backlog) and the sharder's
// depth input.
func (f *Frontend) Outstanding() int {
	n := 0
	for _, ws := range f.wq {
		n += int(ws.outstanding.Load())
	}
	return n
}

func (f *Frontend) handleStats(rw http.ResponseWriter, _ *http.Request) {
	rw.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(rw).Encode(f.Stats())
}

// workerLoop is one per-worker model selector: it waits for queued
// queries, asks the head tenant's selector, has the core decide what
// dispatches, and sends the batch to its worker over HTTP. It is the only
// consumer of its ring, so the head snapshot stays valid after the lock is
// dropped (the ring can only grow underneath it).
func (f *Frontend) workerLoop(w int) {
	defer f.loops.Done()
	ws := f.wq[w]
	scr := &dispatchScratch{postScratch: postScratch{net: f.net}}
	defer scr.closeConns()
	for {
		ws.mu.Lock()
		for ws.ring.len() == 0 && !f.closed.Load() {
			ws.cond.Wait()
		}
		if ws.ring.len() == 0 && f.closed.Load() {
			ws.mu.Unlock()
			return
		}
		n, deadline := f.core.Tightest(w, ws)
		head := *ws.ring.at(0)
		ws.mu.Unlock()

		// The batch decision is keyed by the head query's tenant: its
		// selector, monitored load, and degrade clamp drive the pick.
		// Batches may still mix tenants (FIFO order is preserved); each
		// query is judged against its own SLO at dispatch.
		now := f.now()
		st := head.st
		ch := sched.Choice{
			Now: now, Worker: w, QueueLen: n, Slack: deadline - now, Load: st.Load(now),
			Head: &st.Account, TraceID: head.traceID,
		}
		ch.Model, ch.Batch = st.sel(now, ch.Load, n, ch.Slack)
		pick := f.core.Decide(ch, &scr.dec)
		ws.mu.Lock()
		scr.batch = ws.ring.popInto(scr.batch[:0], pick.Batch)
		ws.mu.Unlock()

		f.dispatch(w, pick, scr)
		// Drop the popped queries' channel and tenant-state references so
		// the scratch slice does not retain them until the next batch.
		for i := range scr.batch {
			scr.batch[i] = pendingQuery{}
		}
	}
}

// post attempts one /infer POST against worker w and reports the outcome
// to the health tracker. Connection errors and 5xx responses count as
// health failures; 4xx responses fail the dispatch without poisoning the
// worker's health (they indicate a bad request, not a bad worker). On
// success it returns the worker-reported inference latency in modeled
// seconds, so the dispatch overhead and the inference time can be
// attributed to separate span stages. body is the batch's pre-encoded
// InferRequest and traceCtx its comma-joined trace context, both built
// once per batch by dispatch (both alias the scratch, which is safe: the
// exchange copies them into the wire buffer before writing).
func (f *Frontend) post(w int, body []byte, traceCtx []byte, scr *dispatchScratch) (float64, bool) {
	f.workerDispatch[w].Inc()
	lat, status, err := scr.postInfer(w, f.inferURLs[w], body, traceCtx)
	if err != nil && status == 0 {
		f.health.ReportFailure(w)
		return 0, false
	}
	if status >= 500 {
		f.health.ReportFailure(w)
		return 0, false
	}
	if status < 200 || status >= 300 {
		return 0, false
	}
	f.health.ReportSuccess(w)
	if err != nil {
		return 0, true // delivered; latency attribution degrades to dispatch
	}
	return lat, true
}

// allowFailover asks the retry budget for a failover attempt. Without a
// budget every failover is allowed (the historical behaviour); with one,
// refusals fail the batch fast so retries cannot amplify an overload onto
// the surviving workers.
func (f *Frontend) allowFailover() bool {
	if f.RetryBudget == nil {
		return true
	}
	if f.RetryBudget.Allow(f.now()) {
		f.retries.Inc()
		return true
	}
	f.retriesDenied.Inc()
	return false
}

// failoverTarget picks a healthy worker other than w, or -1 if none.
func (f *Frontend) failoverTarget(w int) int {
	if len(f.Workers) < 2 {
		return -1
	}
	scr := f.picks.Get().(*pickScratch)
	defer f.picks.Put(scr)
	scr.healthy = f.health.HealthyInto(scr.healthy[:0])
	scr.healthy[w] = false
	if !anyHealthy(scr.healthy) {
		return -1
	}
	scr.lens = f.queueLensInto(scr.lens[:0])
	alt := f.Balancer.Pick(scr.lens, scr.healthy)
	if alt == w {
		return -1
	}
	return alt
}

func anyHealthy(healthy []bool) bool {
	for _, h := range healthy {
		if h {
			return true
		}
	}
	return false
}

// dispatch delivers the popped batch to worker w, failing over once to
// another healthy worker; queries whose batch reached no worker are
// recorded as violations (and FailedDispatches) rather than silently
// marked served. The core finishes the batch and judges every query; the
// frontend adds what only it can see — the six-stage span trace — and
// answers the client.
func (f *Frontend) dispatch(w int, pick sched.Pick, scr *dispatchScratch) {
	queries := scr.batch
	p := f.core.Profile(w, pick.Model)
	// One X-Trace-Id header carries the whole trace context —
	// "id1,id2,...;process" — so the wire costs the worker's server a
	// single non-common header parse per batch instead of two.
	scr.ids = scr.ids[:0]
	for i := range queries {
		if i > 0 {
			scr.ids = append(scr.ids, ',')
		}
		scr.ids = append(scr.ids, queries[i].traceID...)
	}
	scr.ids = append(scr.ids, ';')
	scr.ids = append(scr.ids, f.name...)
	scr.body = appendInferRequest(scr.body[:0], p.Name, len(queries))
	dispStart := f.now()
	target := w
	infSec, ok := f.post(w, scr.body, scr.ids, scr)
	if !ok {
		if alt := f.failoverTarget(w); alt >= 0 && f.allowFailover() {
			infSec, ok = f.post(alt, scr.body, scr.ids, scr)
			if ok {
				target = alt
			}
		}
	}
	postEnd := f.now()
	dispSec := max(postEnd-dispStart-infSec, 0)
	// The end instant is read while the batch is outstanding, or a clock
	// that advances once nothing is (a replay's) could move first. The
	// batch leaves the count before its first answer is sent, so a caller
	// holding its answer never counts it.
	done := f.now()
	f.wq[w].outstanding.Add(-int32(len(queries)))
	fin := f.core.Finish(pick, &scr.dec, target, infSec, done, ok)
	respSec := done - postEnd
	// One scratch span buffer for the whole batch: the trace ring copies
	// spans on Add, so each query's spans are written in place. (A local
	// array would escape into the ring's Add call and heap-allocate per
	// batch, so the buffer lives in the per-loop scratch instead.)
	spanBuf := &scr.spans
	for i := range queries {
		pq := &queries[i]
		lat, violated := fin.Query(&pq.st.Account, pq.q.Arrival, pq.traceID)
		resp := QueryResponse{
			ID: pq.q.ID, Model: p.Name, Batch: len(queries),
			LatencyMS: lat * 1000, DeadlineMet: !violated,
		}
		if !ok {
			resp.Error = "dispatch failed: no healthy worker reachable"
		}

		enqSec := max(pq.enqueuedAt-pq.q.Arrival-pq.pickSec, 0)
		waitSec := dispStart - pq.enqueuedAt
		*spanBuf = [6]telemetry.Span{ // telemetry.Stages order
			{Stage: telemetry.StageEnqueue, Seconds: enqSec},
			{Stage: telemetry.StagePick, Seconds: pq.pickSec},
			{Stage: telemetry.StageBatchWait, Seconds: waitSec},
			{Stage: telemetry.StageDispatch, Seconds: dispSec},
			{Stage: telemetry.StageInference, Seconds: infSec},
			{Stage: telemetry.StageRespond, Seconds: respSec},
		}
		for i := range spanBuf {
			f.stages[i].Observe(spanBuf[i].Seconds)
		}
		f.core.Trace(telemetry.QueryTrace{
			ID: pq.q.ID, Arrival: pq.q.Arrival, Worker: target,
			Model: p.Name, Batch: len(queries),
			LatencyMS: lat * 1000, DeadlineMet: !violated, Error: resp.Error,
			TraceID: pq.traceID, Tenant: pq.q.Tenant,
			Decision: &scr.dec,
		}, spanBuf[:])
		if pq.done != nil {
			pq.done <- resp
		}
	}
}
