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
// assumption, so routing behaves the way the policy's MDP transition
// probabilities assume; the simulator and the serving plane both build
// their balancers here. The seed only affects power-of-two choices.
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
// policies, switching policies with the monitored load. Every worker's
// selector is an adapt.Adapter's; the three constructors differ only in
// its ladder and trigger — one ladder for every worker or one per worker,
// each under §3.2.2's coverage trigger, or a drift adapter's.
type RAMSIS struct {
	Monitor monitor.Monitor
	// LB routes arrivals over the per-worker queues; nil is round-robin
	// (created on the first run and kept). Policies should be generated with
	// the matching core.Balancing (§3.2.1, Appendix I), and BalancerFor maps
	// one to the other.
	LB lb.Balancer

	sel       sched.Selector   // every worker's, or nil when perWorker is set
	perWorker []sched.Selector // one per worker (NewHeteroRAMSIS)
}

// NewRAMSIS wires a policy set and a load monitor into a scheduler. A load
// beyond the ladder generates its rung inline, through §3.2.2's coverage
// adapter, which costs no virtual time.
func NewRAMSIS(set *core.PolicySet, mon monitor.Monitor) *RAMSIS {
	return &RAMSIS{Monitor: mon, sel: sched.AdaptiveSelector(adapt.NewCoverage(set, false, nil))}
}

// NewHeteroRAMSIS serves a heterogeneous deployment: each worker has its
// own policy set, generated from that worker type's latency profiles (§7
// notes homogeneity is not fundamental because policies are per-worker;
// §4's transition probabilities only need the worker's own latencies and
// its round-robin share of arrivals), each under an inline coverage adapter.
// Pair it with Engine.WorkerProfiles.
func NewHeteroRAMSIS(sets []*core.PolicySet, mon monitor.Monitor) *RAMSIS {
	r := &RAMSIS{Monitor: mon}
	for _, set := range sets {
		r.perWorker = append(r.perWorker, sched.AdaptiveSelector(adapt.NewCoverage(set, false, nil)))
	}
	return r
}

// NewAdaptiveRAMSIS closes §6's adaptation loop: every monitored load
// reading also feeds the adapter's drift detector — each admitted arrival's,
// right after the monitor observes it, and each decision's, through
// sched.AdaptiveSelector, so a rate drop (fewer arrivals) is still noticed
// promptly — and a sustained rate change re-solves the per-worker MDP at
// the new rate and inserts the policy mid-run. Unlike NewRAMSIS, a load
// past the adapter's ladder generates nothing until the drift detector
// confirms it.
//
// Re-solves run inline (adapt.Config.Background unset): in a discrete-event
// simulation a solve costs zero modeled time, which models a controller
// whose re-solve is fast relative to the drift dwell time.
func NewAdaptiveRAMSIS(a *adapt.Adapter, mon monitor.Monitor) *RAMSIS {
	return &RAMSIS{Monitor: feeding{mon, a}, sel: sched.AdaptiveSelector(a)}
}

// feeding is a monitor whose every observed arrival also feeds the load
// reading that follows it to an adapter's drift detector.
type feeding struct {
	monitor.Monitor
	a *adapt.Adapter
}

func (f feeding) Observe(now float64) {
	f.Monitor.Observe(now)
	f.a.Observe(now, f.Monitor.Load(now))
}

// Scheme routes through LB (§3.2.1 round-robin, Appendix I
// shortest-queue-first, or power-of-two choices) and applies the
// lowest-load policy meeting the anticipated load to each worker's queue
// state (§3.2.2).
func (r *RAMSIS) Scheme(profile.Set) Scheme {
	if r.LB == nil {
		r.LB = lb.NewRoundRobin()
	}
	return Scheme{Monitor: r.Monitor, Balancer: r.LB, Select: r.sel, PerWorker: r.perWorker}
}

// FixedModel always serves the same model from the central queue with eager
// workers and a batch cap: the simplest load-granular strawman.
type FixedModel struct {
	Model    int
	MaxBatch int
}

// Scheme eagerly grabs up to MaxBatch queries for the Model-th of models.
func (f *FixedModel) Scheme(models profile.Set) Scheme {
	name, batch := models.Profiles[f.Model].Name, max(f.MaxBatch, 1)
	return Scheme{Select: func(float64, float64, int, float64) (string, int) { return name, batch }}
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
	r := NewRAMSIS(set, monitor.Oracle{Trace: tr})
	r.LB = BalancerFor(pol.Balancing, 1)
	e := NewEngine(models, pol.SLO, pol.Workers, Deterministic{}, r, seed)
	return e.Run(trace.PoissonArrivals(tr, seed))
}
