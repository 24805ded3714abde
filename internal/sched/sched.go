// Package sched is the scalar dispatch core the simulator and the serving
// prototype share (§7.3.1: the two run the same scheduling code and differ
// only in latency variance). It owns the three behaviours both dispatch
// loops need — Arrive screens an arrival through the core's admitter,
// accounts the verdict and, once the query is admitted, observes it on its
// account's rate monitor, so both drivers' selectors see the same load;
// Decide turns a selector's choice into the batch that dispatches; Finish
// accounts a completed batch and each of its queries — plus the registry
// series and the policy → selector adaptor they use.
//
// The core works purely in modeled seconds handed in by its caller and
// never reads a clock: sim.Engine drives it from its event loop,
// serve.Frontend from wall time × TimeScale, and both therefore execute
// the same decisions. It holds no queues and no locks. Everything it
// touches concurrently (registry series, the degrader, the rings, and the
// frontend's monitors, each a monitor.Locked) is safe for concurrent use, so the frontend calls it from every handler and
// worker loop without further synchronisation; without a registry, ring or
// tracer it performs no atomic operation and allocates nothing.
package sched

import (
	"math"

	"ramsis/internal/admit"
	"ramsis/internal/monitor"
	"ramsis/internal/profile"
	"ramsis/internal/telemetry"
)

// Config wires a Core. Everything but Profiles is optional.
type Config struct {
	// Profiles is the model set loaded on every worker — one entry — or
	// one set per worker for a heterogeneous deployment. Selectors name
	// models; the name → index map is built here, once.
	Profiles []profile.Set
	// Admit, when set, screens every arrival (see Arrive); its Name labels
	// the shed counter. Nil admits everything and records nothing.
	Admit       Admitter
	Telemetry   *telemetry.Registry
	Decisions   *telemetry.DecisionBuffer
	Traces      *telemetry.TraceBuffer
	TraceWriter *telemetry.TraceWriter
	// Process and Parent name the driver and its upstream in trace
	// fragments; Shard and WorkerOffset place it in a sharded plane (worker
	// w is recorded as WorkerOffset+w).
	Process, Parent     string
	Shard, WorkerOffset int
}

// Core is one driver's dispatch core; see the package comment.
type Core struct {
	cfg  Config
	sets []modelSet
	tel  *Series // nil without a registry
}

// modelSet is one worker type's profiles with everything Decide derives
// from them.
type modelSet struct {
	profiles []profile.Profile
	index    map[string]int       // model name → index into profiles
	order    []int                // indices fastest-first, for the degrade clamp
	maxBatch int                  // the batch window: no batch exceeds it
	served   []*telemetry.Counter // per-model served-queries series; nil without a registry
}

// Admitter screens one arrival for the named account. *tenant.FairAdmitter
// satisfies it directly; Plain wraps a single-tenant admit.Admitter.
type Admitter interface {
	Admit(account string, r admit.Request) admit.Verdict
	Name() string
}

// Plain is a single-tenant admitter as an Admitter: every account is
// screened alike. A nil a is a nil Admitter.
func Plain(a admit.Admitter) Admitter {
	if a == nil {
		return nil
	}
	return plain{a}
}

type plain struct{ admit.Admitter }

func (p plain) Admit(_ string, r admit.Request) admit.Verdict { return p.Admitter.Admit(r) }

// New builds a core.
func New(cfg Config) *Core {
	c := &Core{cfg: cfg}
	if cfg.Telemetry != nil {
		policy := ""
		if cfg.Admit != nil {
			policy = cfg.Admit.Name()
		}
		c.tel = NewSeries(cfg.Telemetry, policy)
	}
	for _, set := range cfg.Profiles {
		ms := modelSet{profiles: set.Profiles, index: make(map[string]int, set.Len()), order: set.SpeedOrder()}
		for i, p := range set.Profiles {
			ms.index[p.Name] = i
			ms.maxBatch = max(ms.maxBatch, p.MaxBatch())
			if cfg.Telemetry != nil {
				ms.served = append(ms.served, cfg.Telemetry.Counter(telemetry.MetricModelQueries, "model", p.Name))
			}
		}
		c.sets = append(c.sets, ms)
	}
	return c
}

// Series returns the registry series the core records into (nil without a
// registry); the drivers add their own stage observations to it.
func (c *Core) Series() *Series { return c.tel }

func (c *Core) set(worker int) *modelSet {
	if len(c.sets) == 1 {
		return &c.sets[0]
	}
	return &c.sets[worker]
}

// Tracing reports whether trace fragments are recorded anywhere.
func (c *Core) Tracing() bool { return c.cfg.Traces != nil || c.cfg.TraceWriter != nil }

// Attributing reports whether any surface consumes per-decision records:
// drivers hand Decide a telemetry.Decision (and trace IDs) only then.
func (c *Core) Attributing() bool { return c.cfg.Decisions != nil || c.Tracing() }

// Trace lands one fragment, with spans as its Spans, in the ring and the
// JSONL stream, stamped with the driver's place in the plane. The spans
// travel beside the trace so a stack array stays on the stack
// (telemetry.Record).
func (c *Core) Trace(qt telemetry.QueryTrace, spans []telemetry.Span) {
	qt.Process, qt.Parent, qt.Shard = c.cfg.Process, c.cfg.Parent, c.cfg.Shard
	telemetry.Record(c.cfg.Traces, c.cfg.TraceWriter, qt, spans)
}

// Account is one tenant's serving account: the SLO its queries are judged
// against, the degrader that clamps batches it heads, and its share of the
// counters. A single-tenant driver runs exactly one (unnamed) account.
type Account struct {
	// Name is the tenant label on records; the unnamed account's series
	// carry tenant="default".
	Name string
	SLO  float64
	// Degrade, when set, takes this account's admission outcomes as its
	// pressure signal, and its level clamps every batch the account heads.
	Degrade *admit.Degrader
	// Monitor, when set, is the account's arrival-rate monitor: Arrive
	// observes every admitted arrival on it, and Load reads it. A driver
	// that shares one among goroutines must make it safe for that
	// (monitor.Locked).
	Monitor monitor.Monitor
	// Attainment is the account's windowed SLO tracker, behind its
	// ramsis_slo_* gauges. It and the ramsis_tenant_* counters below are nil
	// without a registry.
	Attainment *telemetry.SLOTracker

	queries, violations      *telemetry.Counter
	admitted, shed, borrowed *telemetry.Counter
}

// NewAccount builds an account. With a registry it registers the tenant's
// ramsis_tenant_* counters and its windowed ramsis_slo_* gauges (the
// telemetry defaults: 0.99 over 60/300/3600 s); now is the gauges' scrape
// clock in modeled seconds (nil reads the tracker's last observation, the
// simulator's only clock).
func NewAccount(reg *telemetry.Registry, name string, slo float64, now func() float64) Account {
	a := Account{Name: name, SLO: slo}
	if reg == nil {
		return a
	}
	label := name
	if label == "" {
		label = "default"
	}
	counter := func(metric string) *telemetry.Counter { return reg.CounterVec(metric, "tenant").With(label) }
	a.queries, a.violations = counter(telemetry.MetricTenantQueries), counter(telemetry.MetricTenantViolations)
	a.admitted, a.shed = counter(telemetry.MetricTenantAdmitted), counter(telemetry.MetricTenantShed)
	a.borrowed = counter(telemetry.MetricTenantBorrowed)
	a.Attainment = telemetry.NewSLOTracker(telemetry.SLOConfig{})
	telemetry.RegisterSLOGauges(reg, a.Attainment, label, now)
	return a
}

// Load reads the account's monitored arrival rate at now (0 without a
// monitor): what its selector is shown and its decision records carry.
func (a *Account) Load(now float64) float64 {
	if a.Monitor == nil {
		return 0
	}
	return a.Monitor.Load(now)
}

// Arrival is one query at the arrival step.
type Arrival struct {
	ID      int
	Time    float64
	TraceID string
	// Backlog is the driver's queues. Arrive reads their Outstanding only
	// when there is an admitter to screen with.
	Backlog Backlog
}

// Backlog counts the queries a driver has admitted and not yet completed —
// queued and in flight, summed across workers: the backlog an admitter's
// wait estimate drains.
type Backlog interface{ Outstanding() int }

// Arrive is the arrival step both drivers run for every query of account
// a: it screens the query through the core's admitter, accounts the verdict
// and, when the query is admitted, observes it on the account's rate
// monitor — after the verdict is recorded, so an admission record's rate is
// the one before its own arrival. It returns the verdict; the query
// proceeds to routing when Admit is set. Without an admitter every arrival
// is admitted and observed, and nothing is recorded.
func (c *Core) Arrive(a *Account, q Arrival) admit.Verdict {
	v := admit.Verdict{Admit: true}
	if c.cfg.Admit != nil {
		backlog := q.Backlog.Outstanding()
		v = c.cfg.Admit.Admit(a.Name, admit.Request{Now: q.Time, Outstanding: backlog})
		c.account(a, v, q, backlog)
	}
	if v.Admit && a.Monitor != nil {
		a.Monitor.Observe(q.Time)
	}
	return v
}

// account records one admission verdict for account a: the verdict feeds
// the degrader's pressure window, the wait-estimate histogram and the
// admitted/borrowed/shed counters (global and the account's), lands in the
// decision ring as an admit, borrow or shed with the backlog and monitored
// rate the admitter saw, and a shed query leaves a single-span trace so it
// stays visible next to the served ones. The wait estimate the verdict was
// premised on is the record's PredictedSec; admission makes no
// realized-latency claim.
func (c *Core) account(a *Account, v admit.Verdict, q Arrival, backlog int) {
	borrowed := v.Admit && v.Reason == admit.ReasonBorrowed
	level := 0
	if d := a.Degrade; d != nil {
		level = d.Level()
		d.Observe(q.Time, !v.Admit, v.EstWait)
	}
	if t := c.tel; t != nil {
		t.EstWait.Observe(v.EstWait)
		if v.Admit {
			t.Admitted.Inc()
			a.admitted.Inc()
			if borrowed {
				a.borrowed.Inc()
			}
		} else {
			t.Shed.Inc()
			a.shed.Inc()
		}
	}
	if c.cfg.Decisions != nil {
		kind, outcome := telemetry.DecisionShed, "shed"
		switch {
		case borrowed:
			kind, outcome = telemetry.DecisionBorrow, "admitted"
		case v.Admit:
			kind, outcome = telemetry.DecisionAdmit, "admitted"
		}
		c.cfg.Decisions.Add(telemetry.Decision{
			Kind: kind, Time: q.Time, TraceID: q.TraceID,
			Tenant: a.Name, Shard: c.cfg.Shard, Worker: -1,
			QueueLen: backlog, RateQPS: a.Load(q.Time), DegradeLevel: level,
			PredictedSec: v.EstWait, Outcome: outcome,
		})
	}
	if !v.Admit && c.Tracing() {
		// Record copies the spans, so a stack span array suffices.
		sp := [1]telemetry.Span{{Stage: telemetry.StageShed}}
		c.Trace(telemetry.QueryTrace{
			ID: q.ID, Arrival: q.Time, Worker: -1, Error: "shed",
			TraceID: q.TraceID, Tenant: a.Name,
		}, sp[:])
	}
}

// Window is the FIFO prefix of a worker's queue the next batch is drawn
// from; the driver's queue implements it (under whatever lock it needs).
type Window interface {
	Len() int
	// Deadline returns the i-th queued query's absolute deadline.
	Deadline(i int) float64
}

// Tightest returns the worker's queue length and the tightest deadline in
// its batch window. The decision slack honors that deadline, not just the
// head's: a FIFO queue shared by tenants mixes SLO classes, and a short-SLO
// query stuck behind a lax head would otherwise wait out a slow
// accurate-model batch it can never survive (head-of-line inversion). The
// queue must be non-empty.
func (c *Core) Tightest(worker int, q Window) (n int, deadline float64) {
	n = q.Len()
	deadline = q.Deadline(0)
	for i, scan := 1, min(n, c.set(worker).maxBatch); i < scan; i++ {
		if d := q.Deadline(i); d < deadline {
			deadline = d
		}
	}
	return n, deadline
}

// Choice is a selector's answer for one idle worker, with the inputs it
// was given.
type Choice struct {
	Now      float64
	Worker   int
	QueueLen int
	Slack    float64 // tightest deadline in the batch window − Now
	Load     float64 // monitored arrival rate the selector was shown
	Model    string
	Batch    int
	// Head is the head query's account: its degrader clamps the batch and
	// its name labels the records. Batches may still mix accounts (FIFO
	// order is preserved); each query is judged against its own at Finish.
	Head    *Account
	TraceID string
}

// Pick is the batch that dispatches: the driver pops Batch queries off the
// queue it showed Decide and runs them on model Model of the worker's set
// (Core.Profile resolves it). It holds no pointers, so a driver can park it
// in an event heap for free.
type Pick struct {
	Model, Batch int
	// Clamped marks a model substituted by degraded-mode serving; Fallback
	// a choice the selector got wrong (see Decide).
	Clamped, Fallback bool
}

// Profile returns model m of the set loaded on worker.
func (c *Core) Profile(worker, m int) *profile.Profile { return &c.set(worker).profiles[m] }

// Decide turns the selector's choice into the batch that dispatches. A
// model the worker does not load, or a batch below one, falls back to the
// first model at batch one — live queries are never dropped on selector
// misbehaviour — and is counted (ramsis_select_fallbacks_total, and
// Pick.Fallback) so a mis-wired policy stays visible and fails a replay.
// The head account's degrade level then clamps the model to the slowest
// still-allowed one, whatever batch was asked for: overload relief must not
// depend on batch size. Last, the batch is capped by the final model's
// MaxBatch and the queue length; the driver pops after Decide, so the cap
// follows the clamp.
//
// dec — required whenever the core is Attributing, else nil — receives the
// select decision for what actually dispatches: post-clamp model, final
// batch, PredictedSec the profiled latency the policy committed to; Finish
// completes it with the realized latency. A clamp is recorded in the
// decision ring at once, as the same record of kind degrade.
func (c *Core) Decide(ch Choice, dec *telemetry.Decision) Pick {
	ms := c.set(ch.Worker)
	pick := Pick{Batch: ch.Batch}
	mi, ok := ms.index[ch.Model]
	if !ok || pick.Batch < 1 {
		mi, pick.Batch, pick.Fallback = 0, 1, true
		if c.tel != nil {
			c.tel.Fallbacks.Inc()
		}
	}
	chosen, level := mi, 0
	if d := ch.Head.Degrade; d != nil {
		level = d.Level()
		mi = admit.ClampModel(ms.order, level, chosen)
	}
	p := &ms.profiles[mi]
	pick.Model = mi
	pick.Batch = min(pick.Batch, p.MaxBatch(), ch.QueueLen)
	pick.Clamped = mi != chosen
	if pick.Clamped && c.tel != nil {
		c.tel.Degraded.Inc()
	}
	if dec == nil {
		return pick
	}
	*dec = telemetry.Decision{
		Kind: telemetry.DecisionSelect, Time: ch.Now, TraceID: ch.TraceID,
		Tenant: ch.Head.Name, Shard: c.cfg.Shard, Worker: c.cfg.WorkerOffset + ch.Worker,
		QueueLen: ch.QueueLen, RateQPS: ch.Load, DegradeLevel: level, SlackSec: ch.Slack,
		Model: p.Name, Batch: pick.Batch, PredictedSec: p.BatchLatency(pick.Batch),
	}
	if pick.Clamped && c.cfg.Decisions != nil {
		clamp := *dec
		clamp.Kind, clamp.Outcome = telemetry.DecisionDegrade, "clamped from "+ms.profiles[chosen].Name
		c.cfg.Decisions.Add(clamp)
	}
	return pick
}

// Finished is a completed batch; Query accounts each of its queries.
type Finished struct {
	c         *Core
	end       float64
	delivered bool
	accuracy  float64
}

// Finish accounts a batch that ran on worker (the failover target, when
// the driver had to pick one) and completed at modeled time end after
// realized seconds of inference; delivered is false when it reached no
// worker at all. The per-batch series are recorded, and dec — the select
// decision Decide filled — is completed with the realized latency and
// lands in the decision ring. Call Query on the result once per query.
func (c *Core) Finish(p Pick, dec *telemetry.Decision, worker int, realized, end float64, delivered bool) Finished {
	ms := c.set(worker)
	if t := c.tel; t != nil {
		t.Decisions.Inc()
		ms.served[p.Model].Add(float64(p.Batch))
		t.BatchSize.Observe(float64(p.Batch))
		if delivered {
			t.DecisionErr.Observe(math.Abs(ms.profiles[p.Model].BatchLatency(p.Batch) - realized))
		}
	}
	if dec != nil {
		dec.Worker = c.cfg.WorkerOffset + worker
		dec.RealizedSec = realized
		dec.Outcome = "served"
		if !delivered {
			dec.Outcome = "failed"
		}
		if c.cfg.Decisions != nil {
			c.cfg.Decisions.Add(*dec)
		}
	}
	return Finished{c: c, end: end, delivered: delivered, accuracy: ms.profiles[p.Model].Accuracy}
}

// Query accounts one query of the batch against its own account: its
// end-to-end latency and whether that violates the account's SLO — the one
// SLO test both clocks apply; an undelivered query is a violation whatever
// its latency. The outcome lands in the global and per-account counters,
// the account's attainment tracker and the latency histogram (traceID,
// when non-empty, becomes the bucket's exemplar).
func (f Finished) Query(a *Account, arrival float64, traceID string) (latency float64, violated bool) {
	latency = f.end - arrival
	violated = !f.delivered || latency > a.SLO+1e-12
	t := f.c.tel
	if t == nil {
		return latency, violated
	}
	t.Queries.Inc()
	a.queries.Inc()
	if violated {
		t.Violations.Inc()
		a.violations.Inc()
	} else {
		t.SatAcc.Add(f.accuracy)
	}
	if !f.delivered {
		t.Failed.Inc()
	}
	a.Attainment.Observe(f.end, !violated)
	t.Latency.ObserveExemplar(latency, traceID)
	return latency, violated
}
