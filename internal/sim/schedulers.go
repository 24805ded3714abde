package sim

import (
	"ramsis/internal/adapt"
	"ramsis/internal/core"
	"ramsis/internal/dist"
	"ramsis/internal/lb"
	"ramsis/internal/monitor"
	"ramsis/internal/profile"
	"ramsis/internal/sched"
	"ramsis/internal/trace"
)

// BalancerFor returns the lb implementation matching an offline balancing
// assumption, so simulated routing behaves the way the policy's MDP
// transition probabilities assume. The seed only affects power-of-two
// choices.
func BalancerFor(b core.Balancing, seed int64) lb.Balancer {
	switch b {
	case core.ShortestQueueFirst:
		return lb.NewJoinShortestQueue()
	case core.PowerOfTwoChoices:
		return lb.NewPowerOfTwoChoices(seed)
	}
	return lb.NewRoundRobin()
}

// RAMSIS is the online phase of §3.2: a load balancer over per-worker
// queues plus per-worker model selectors driven by offline-generated
// policies, switching policies with the monitored load. The three
// constructors differ only in where a worker's policy comes from — one
// ladder for every worker, one ladder per worker, or the adaptation loop's
// published set.
type RAMSIS struct {
	Monitor monitor.Monitor
	// Balance selects the load-balancing strategy; policies should be
	// generated with the matching core.Balancing (§3.2.1, Appendix I).
	Balance core.Balancing
	// LB overrides the balancer implementation. When nil it is derived
	// from Balance on first use (deterministically seeded); set it
	// explicitly to control the P2C sampling stream.
	LB lb.Balancer

	sel     []sched.Selector // one for every worker, or one per worker
	adapter *adapt.Adapter   // fed every load reading when the adaptation loop is closed
	lens    []int
}

// blocking looks a load's policy up with PolicySet.PolicyFor: a load beyond
// the ladder generates its policy on the spot, which costs no virtual time.
func blocking(set *core.PolicySet) sched.Selector {
	return sched.PolicySelector(func(_, load float64) (*core.Policy, error) { return set.PolicyFor(load) })
}

// NewRAMSIS wires a policy set and a load monitor into a scheduler.
func NewRAMSIS(set *core.PolicySet, mon monitor.Monitor) *RAMSIS {
	return &RAMSIS{Monitor: mon, sel: []sched.Selector{blocking(set)}}
}

// NewHeteroRAMSIS serves a heterogeneous deployment: each worker has its
// own policy set, generated from that worker type's latency profiles (§7
// notes homogeneity is not fundamental because policies are per-worker;
// §4's transition probabilities only need the worker's own latencies and
// its round-robin share of arrivals). Pair it with Engine.WorkerProfiles.
func NewHeteroRAMSIS(sets []*core.PolicySet, mon monitor.Monitor) *RAMSIS {
	r := &RAMSIS{Monitor: mon}
	for _, set := range sets {
		r.sel = append(r.sel, blocking(set))
	}
	return r
}

// AdaptiveRAMSIS is the RAMSIS scheduler NewAdaptiveRAMSIS builds.
type AdaptiveRAMSIS = RAMSIS

// NewAdaptiveRAMSIS closes the adaptation loop: every monitored load
// reading also feeds the adapter's drift detector, so a sustained rate
// change re-solves the per-worker MDP at the new rate and hot-swaps the
// policy mid-run. Decisions stay lookup-only — the adapter owns all
// generation — unlike NewRAMSIS, whose policy set generates on demand the
// first time a load exceeds its ladder.
//
// Re-solves run inline (adapt.Config.Background unset): in a discrete-event
// simulation a solve costs zero modeled time, which models a controller
// whose re-solve is fast relative to the drift dwell time — the measured
// 200 ms solve on the paper-scale worker MDP against multi-second dwell.
func NewAdaptiveRAMSIS(a *adapt.Adapter, mon monitor.Monitor) *AdaptiveRAMSIS {
	// Dispatch decisions feed the detector too, so a rate drop (fewer
	// arrivals) is still noticed promptly.
	sel := sched.PolicySelector(func(now, load float64) (*core.Policy, error) {
		a.Observe(now, load)
		return a.PolicyFor(load), nil
	})
	return &RAMSIS{Monitor: mon, sel: []sched.Selector{sel}, adapter: a}
}

// Route observes the arrival for load tracking and assigns the query to a
// worker queue via the configured balancer: round-robin (§3.2.1),
// shortest-queue-first (Appendix I), or power-of-two choices. Simulated
// workers never fail, so the health mask is nil.
func (r *RAMSIS) Route(e *Engine, now float64, q Query) {
	r.Monitor.Observe(now)
	if r.adapter != nil {
		r.adapter.Observe(now, r.Monitor.Load(now))
	}
	if r.LB == nil {
		r.LB = BalancerFor(r.Balance, 1)
	}
	r.lens = e.QueueLens(r.lens)
	e.EnqueueWorker(r.LB.Pick(r.lens, nil), q)
}

// Select applies the lowest-load policy meeting the anticipated load to
// worker w's queue state (§3.2.2).
func (r *RAMSIS) Select(_ *Engine, now float64, w, n int, slack float64) (string, int) {
	sel := r.sel[0]
	if len(r.sel) > 1 {
		sel = r.sel[w]
	}
	return sel(now, r.Monitor.Load(now), n, slack)
}

// FixedModel always serves the same model from the central queue with eager
// workers and a batch cap. It implements the offline response-latency
// profiling runs of the ModelSwitching baseline and acts as the simplest
// load-granular strawman.
type FixedModel struct {
	Model    int
	MaxBatch int
}

// Route enqueues centrally.
func (f *FixedModel) Route(e *Engine, _ float64, q Query) { e.EnqueueCentral(q) }

// Select eagerly grabs up to MaxBatch queries.
func (f *FixedModel) Select(e *Engine, _ float64, _, _ int, _ float64) (string, int) {
	return e.Profiles.Profiles[f.Model].Name, max(f.MaxBatch, 1)
}

// VerifyPolicy empirically validates a policy's §5.1 guarantees: it serves
// dur seconds of arrivals at the policy's design load through the simulator
// and reports the observed metrics, which should respect the expected
// accuracy (from below) and expected violation rate (from above). The
// arrival pattern matches the policy's balancing assumption (Poisson +
// round-robin by default).
func VerifyPolicy(pol *core.Policy, models profile.Set, dur float64, seed int64) Metrics {
	set := core.NewPolicySet(core.Config{
		Models:  models,
		SLO:     pol.SLO,
		Workers: pol.Workers,
		Arrival: dist.NewPoisson(pol.Load),
		D:       pol.D,
	}, nil)
	set.Insert(pol)
	tr := trace.Constant(pol.Load, dur)
	sched := NewRAMSIS(set, monitor.Oracle{Trace: tr})
	sched.Balance = pol.Balancing
	e := NewEngine(models, pol.SLO, pol.Workers, Deterministic{}, sched, seed)
	return e.Run(trace.PoissonArrivals(tr, seed))
}
