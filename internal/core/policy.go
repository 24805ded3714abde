package core

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"ramsis/internal/mdp"
)

// ErrTimeout reports that policy generation exceeded Config.Timeout.
var ErrTimeout = errors.New("core: policy generation timed out")

// Choice is one model-selection decision: run Batch queries on the model.
// Arrival == true marks the empty-queue arrival action (idle until a query
// arrives). Satisfies records whether the decision meets the state's slack.
type Choice struct {
	Model     string  `json:"model"`
	ModelIdx  int     `json:"modelIdx"`
	Batch     int     `json:"batch"`
	Latency   float64 `json:"latency"`
	Satisfies bool    `json:"satisfies"`
	Arrival   bool    `json:"arrival,omitempty"`
}

// Policy is an offline-generated per-worker model-selection policy (§3.1.3):
// a mapping from worker-queue states (n, T_j) to MS decisions, together with
// the §5.1 probabilistic guarantees computed over its MDP.
type Policy struct {
	// Task, SLO, Workers, Load, and knob settings identify the problem the
	// policy was generated for.
	Task      string         `json:"task"`
	SLO       float64        `json:"slo"`
	Workers   int            `json:"workers"`
	Load      float64        `json:"load"`
	Batching  Batching       `json:"batching"`
	Disc      Discretization `json:"disc"`
	D         int            `json:"d"`
	MaxQueue  int            `json:"maxQueue"`
	Balancing Balancing      `json:"balancing"`
	// Pruned records whether the action models were Pareto-pruned (§4.3.3).
	Pruned bool `json:"pruned"`

	// Grid is the slack discretization T_w.
	Grid []float64 `json:"grid"`
	// Choices maps state indices (space indexing) to decisions.
	Choices []Choice `json:"choices"`

	// ExpectedAccuracy is the §5.1 accuracy expectation: the stationary
	// query-weighted mean profiled accuracy per satisfied query, a lower
	// bound on the observed value.
	ExpectedAccuracy float64 `json:"expectedAccuracy"`
	// ExpectedViolation is the §5.1 latency-SLO violation rate expectation
	// (stationary fraction of served queries whose decision misses the
	// earliest deadline), an upper bound on the observed value.
	ExpectedViolation float64 `json:"expectedViolation"`
	// StateExpectedAccuracy is the paper's unweighted §5.1 formula
	// Σ_{s∈S*} P(s)·Accuracy(π[s]), retained for reference.
	StateExpectedAccuracy float64 `json:"stateExpectedAccuracy"`
	// AccuracyDist is the stationary per-query accuracy distribution over
	// satisfied queries (accuracy value -> probability mass), from which
	// §5.1's summary statistics (median, 99th percentile, ...) derive.
	AccuracyDist map[string]float64 `json:"accuracyDist,omitempty"`

	// Stats describe the generation run.
	States      int           `json:"states"`
	Transitions int           `json:"transitions"`
	Iterations  int           `json:"iterations"`
	BuildTime   time.Duration `json:"buildTime"`
	SolveTime   time.Duration `json:"solveTime"`

	space *space
	// values is the converged solver value vector, retained in memory (not
	// serialized — policies loaded from disk have none) so re-solves at
	// neighboring rates can warm-start from it via Config.InitialValues.
	values []float64
}

// SolveValues returns the converged value vector of the solve that produced
// this policy, or nil for policies loaded from disk. The slice is shared;
// callers must not mutate it.
func (p *Policy) SolveValues() []float64 { return p.values }

// newWorkerBuilder defaults and validates the configuration and lays out the
// state space. The returned builder carries the space (with the defaulted
// Config) and the generation deadline, armed here, before the build.
func newWorkerBuilder(cfg Config) (*builder, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return newBuilder(newSpace(cfg)), nil
}

// buildWorker is the front half of the scalar generator, shared by
// BuildWorkerMDP and Generate: a builder for the configuration and the §4
// transition probabilities it derives.
func buildWorker(cfg Config) (*builder, *mdp.MDP, error) {
	b, err := newWorkerBuilder(cfg)
	if err != nil {
		return nil, nil, err
	}
	m := b.buildMDP()
	if b.aborted.Load() {
		return nil, nil, ErrTimeout
	}
	return b, m, nil
}

// PrepareWorkerTables runs the first phase of BuildWorkerMDP alone — action
// enumeration and the probability tables the actions read — and returns the
// number of (rate, latency) pairs tabulated. The build benchmark uses it to
// split a build's cost between the tables and the per-state quadrature.
func PrepareWorkerTables(cfg Config) (int, error) {
	b, err := newWorkerBuilder(cfg)
	if err != nil {
		return 0, err
	}
	b.prepare()
	if b.aborted.Load() {
		return 0, ErrTimeout
	}
	return len(b.h), nil
}

// BuildWorkerMDP formulates (but does not solve) the worker MDP for the
// configuration — the §4 transition-probability computation in isolation.
// The solver benchmarks use it to measure the Bellman sweep on a real
// worker-scale state space rather than a synthetic MDP.
func BuildWorkerMDP(cfg Config) (*mdp.MDP, error) {
	_, m, err := buildWorker(cfg)
	if err != nil {
		return nil, err
	}
	if err := m.Validate(1e-6); err != nil {
		return nil, fmt.Errorf("core: built MDP invalid: %w", err)
	}
	return m, nil
}

// Generate runs RAMSIS's offline phase for one worker: it formulates the
// worker MDP (§4), solves it with value iteration (§4.1), and computes the
// §5.1 expectations over the induced stationary distribution.
func Generate(cfg Config) (*Policy, error) {
	start := time.Now()
	b, m, err := buildWorker(cfg)
	if err != nil {
		return nil, err
	}
	buildTime := time.Since(start)
	sp := b.sp
	cfg = sp.cfg

	warm := cfg.InitialValues
	if len(warm) != m.NumStates() {
		warm = nil // a donor solved under different knobs: start cold
	}
	sol, err := solveSpec{cfg.Gamma, cfg.Jacobi, b.deadline}.solve(m, warm)
	if err != nil {
		return nil, err
	}

	pol := &Policy{
		Task:        cfg.Models.Task,
		SLO:         cfg.SLO,
		Workers:     cfg.Workers,
		Load:        cfg.Arrival.Rate(),
		Batching:    cfg.Batching,
		Disc:        cfg.Disc,
		D:           cfg.D,
		MaxQueue:    cfg.MaxQueue,
		Balancing:   cfg.Balancing,
		Pruned:      !cfg.NoParetoPruning,
		Grid:        sp.grid,
		States:      m.NumStates(),
		Transitions: m.NumTransitions(),
		Iterations:  sol.Iterations,
		BuildTime:   buildTime,
		SolveTime:   sol.solveTime,
		space:       sp,
		values:      sol.Values,
	}
	pol.Choices = make([]Choice, m.NumStates())
	for s := range m.Actions {
		a := b.acts[s][sol.Policy[s]]
		if a.Model == arrivalAction {
			pol.Choices[s] = Choice{Arrival: true, Satisfies: true}
			continue
		}
		pol.Choices[s] = Choice{
			Model:     sp.models.Profiles[a.Model].Name,
			ModelIdx:  a.Model,
			Batch:     a.Batch,
			Latency:   a.Latency,
			Satisfies: a.Satisfies,
		}
	}
	pol.computeExpectations(sol.stationary)
	return pol, nil
}

// computeExpectations evaluates the §5.1 guarantees: the stationary
// distribution pi of the policy-induced chain weighted by queries served
// per decision.
func (p *Policy) computeExpectations(pi []float64) {
	var servedMass, violMass, satMass, accMass, stateSat, stateAcc float64
	accDist := map[float64]float64{}
	for s, c := range p.Choices {
		if c.Arrival {
			continue
		}
		w := pi[s] * float64(c.Batch)
		servedMass += w
		if c.Satisfies {
			satMass += w
			acc := p.space.models.Profiles[c.ModelIdx].Accuracy
			accMass += w * acc
			accDist[acc] += w
			stateSat += pi[s]
			stateAcc += pi[s] * acc
		} else {
			violMass += w
		}
	}
	if servedMass > 0 {
		p.ExpectedViolation = violMass / servedMass
	}
	if satMass > 0 {
		p.ExpectedAccuracy = accMass / satMass
		p.AccuracyDist = map[string]float64{}
		for acc, w := range accDist {
			p.AccuracyDist[fmt.Sprintf("%.6f", acc)] = w / satMass
		}
	}
	p.StateExpectedAccuracy = stateAcc
}

// AccuracyQuantile returns the q-th quantile (0 < q <= 1) of the stationary
// per-satisfied-query accuracy distribution — the §5.1 summary statistics
// (median: q = 0.5; 99th percentile: q = 0.99 of the *loss* direction, i.e.
// the accuracy exceeded by 99% of queries is AccuracyQuantile(0.01)).
func (p *Policy) AccuracyQuantile(q float64) float64 {
	if len(p.AccuracyDist) == 0 || q <= 0 || q > 1 {
		return 0
	}
	type bin struct {
		acc  float64
		mass float64
	}
	bins := make([]bin, 0, len(p.AccuracyDist))
	for k, w := range p.AccuracyDist {
		var a float64
		fmt.Sscanf(k, "%f", &a)
		bins = append(bins, bin{a, w})
	}
	sort.Slice(bins, func(i, j int) bool { return bins[i].acc < bins[j].acc })
	cum := 0.0
	for _, b := range bins {
		cum += b.mass
		if cum >= q-1e-12 {
			return b.acc
		}
	}
	return bins[len(bins)-1].acc
}

// Select returns the policy's decision for a worker-queue observation:
// n queued queries whose earliest deadline has slack seconds remaining.
// Queue lengths beyond N_w use the full-queue state's forced decision.
func (p *Policy) Select(n int, slack float64) Choice {
	return p.Choices[p.space.stateFor(n, slack)]
}

// Models returns the policy's (pruned) model set.
func (p *Policy) Models() []string {
	names := make([]string, p.space.models.Len())
	for i, m := range p.space.models.Profiles {
		names[i] = m.Name
	}
	return names
}
