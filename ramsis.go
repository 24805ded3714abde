// Package ramsis is a Go implementation of RAMSIS (Random Arrival Model
// Selection for Inference Serving, EuroSys '24): a framework that generates
// model-selection-and-scheduling policies for latency-critical inference
// serving by modeling each worker as a Markov Decision Process whose
// transition probabilities derive from the query arrival distribution and
// the load-balancing strategy. Policies maximize per-query accuracy within
// a latency SLO by exploiting inter-arrival lulls — selecting slower,
// more accurate models when the arrival pattern safely allows it.
//
// This top-level package is the facade: it wires the model profiles, the
// offline policy generator, the load-adaptive policy set, and the
// discrete-event serving simulator into a small API. The full machinery
// lives under internal/ (core, profile, trace, sim, serve, baselines,
// experiments) and is exercised by the examples/ programs and the
// table/figure benchmarks in bench_test.go.
package ramsis

import (
	"fmt"

	"ramsis/internal/adapt"
	"ramsis/internal/core"
	"ramsis/internal/dist"
	"ramsis/internal/monitor"
	"ramsis/internal/profile"
	"ramsis/internal/sim"
	"ramsis/internal/trace"
)

// Re-exported core types, so library users need only this import.
type (
	// Policy is an offline-generated per-worker model-selection policy.
	Policy = core.Policy
	// PolicyConfig is the full policy-generation configuration for users
	// needing the low-level knobs (discretization, batching, balancing).
	PolicyConfig = core.Config
	// Metrics aggregates a serving run (accuracy per satisfied query,
	// latency SLO violation rate).
	Metrics = sim.Metrics
	// Trace is a query-load trace.
	Trace = trace.Trace
	// ModelSet is a corpus of model profiles.
	ModelSet = profile.Set
)

// ImageModels returns the built-in 26-model image classification corpus.
func ImageModels() ModelSet { return profile.ImageSet() }

// TextModels returns the built-in 5-model BERT text classification corpus.
func TextModels() ModelSet { return profile.TextSet() }

// TwitterTrace returns the 5-minute production-style trace of the paper's
// evaluation (1,617-3,905 QPS).
func TwitterTrace() Trace { return trace.Twitter() }

// ConstantTrace returns a constant-load trace lasting durationSec. It
// panics if durationSec is not positive and finite.
func ConstantTrace(qps, durationSec float64) Trace { return trace.Constant(qps, durationSec) }

// Options configure a serving System.
type Options struct {
	// Models to pre-load on every worker. Defaults to ImageModels().
	Models ModelSet
	// SLOMillis is the response latency SLO in milliseconds (required).
	SLOMillis float64
	// Workers is the number of workers (required).
	Workers int
	// D is the FLD discretization resolution; default 100.
	D int
	// GammaShape, when > 1, switches the modeled arrival distribution from
	// Poisson to an Erlang renewal process of that shape.
	GammaShape int
}

// System is a configured inference-serving deployment: fixed resources
// (workers with pre-loaded models), a latency SLO, and a load-adaptive set
// of RAMSIS policies.
type System struct {
	Models  ModelSet
	SLO     float64
	Workers int
	set     *core.PolicySet
	cover   *adapt.Adapter // §3.2.2's inline coverage trigger over set
}

// New builds a System.
func New(opts Options) (*System, error) {
	if opts.Models.Len() == 0 {
		opts.Models = ImageModels()
	}
	if opts.SLOMillis <= 0 {
		return nil, fmt.Errorf("ramsis: SLOMillis must be positive")
	}
	if opts.Workers < 1 {
		return nil, fmt.Errorf("ramsis: Workers must be at least 1")
	}
	base := core.Config{
		Models:  opts.Models,
		SLO:     opts.SLOMillis / 1000,
		Workers: opts.Workers,
		Arrival: dist.NewPoisson(1),
		D:       opts.D,
	}
	arrival := func(load float64) dist.Process { return dist.NewPoisson(load) }
	if opts.GammaShape > 1 {
		shape := opts.GammaShape
		arrival = func(load float64) dist.Process { return dist.NewGamma(load, shape) }
	}
	set := core.NewPolicySet(base, arrival)
	return &System{
		Models:  opts.Models,
		SLO:     base.SLO,
		Workers: opts.Workers,
		set:     set,
		cover:   adapt.NewCoverage(set, false, nil),
	}, nil
}

// PrecomputePolicies runs the offline phase for the given query loads (QPS).
func (s *System) PrecomputePolicies(loads ...float64) error {
	return s.set.GenerateLoads(loads)
}

// PrecomputePolicyLadder pre-computes policies between minLoad and maxLoad
// until adjacent policies differ by under 1% expected accuracy, the paper's
// query-load-adaptation rule (§6).
func (s *System) PrecomputePolicyLadder(minLoad, maxLoad float64) error {
	return s.set.Refine(minLoad, maxLoad, 0.01, 0)
}

// Policy returns the policy RAMSIS would apply at the anticipated load. A
// load past the precomputed ladder first gets its covering rung generated
// into the ladder (§3.2.2); while a concurrent call's generation runs, or
// when generation fails, the answer is the ladder's top rung.
func (s *System) Policy(load float64) (*Policy, error) {
	if p := s.cover.Policy(0, load); p != nil {
		return p, nil
	}
	return nil, fmt.Errorf("ramsis: no policies precomputed")
}

// Policies returns the precomputed ladder sorted by load.
func (s *System) Policies() []*Policy { return s.set.Policies() }

// PolicySet exposes the underlying load-adaptive policy set for advanced
// integrations (e.g. the HTTP prototype in internal/serve).
func (s *System) PolicySet() *core.PolicySet { return s.set }

// SimulateTrace serves Poisson arrivals sampled from the trace through the
// discrete-event simulator using the RAMSIS scheduler with a 500 ms
// moving-average load monitor, and returns the achieved metrics.
func (s *System) SimulateTrace(tr Trace, seed int64) Metrics {
	sched := sim.NewRAMSIS(s.set, monitor.NewMovingAverage(0.5))
	e := sim.NewEngine(s.Models, s.SLO, s.Workers, sim.Deterministic{}, sched, seed)
	return e.Run(trace.PoissonArrivals(tr, seed))
}

// SimulateConstant serves a constant load for dur seconds (positive and
// finite) with a perfect load monitor (the paper's §7.2 setting).
func (s *System) SimulateConstant(qps, dur float64, seed int64) Metrics {
	tr := trace.Constant(qps, dur)
	sched := sim.NewRAMSIS(s.set, monitor.Oracle{Trace: tr})
	e := sim.NewEngine(s.Models, s.SLO, s.Workers, sim.Deterministic{}, sched, seed)
	return e.Run(trace.PoissonArrivals(tr, seed))
}

// Verify empirically checks a policy's §5.1 guarantees by serving dur
// seconds of Poisson arrivals at the policy's design load through the
// simulator: the returned metrics should show accuracy at or above the
// policy's ExpectedAccuracy and a violation rate at or below its
// ExpectedViolation.
func (s *System) Verify(pol *Policy, dur float64, seed int64) Metrics {
	return sim.VerifyPolicy(pol, s.Models, dur, seed)
}
