package core

import (
	"errors"
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
// a mapping from worker-queue states (n, T_j) to MS decisions. Its embedded
// stats hold the §5.1 probabilistic guarantees, weighted by the queries each
// decision serves, and the size and timing of the generation run.
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

	stats

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

// newWorkerBuilder defaults and validates the configuration, lays out the
// state space, and prepares the tables its rows read. The returned builder
// carries the space (with the defaulted Config) and the generation deadline,
// armed here, before the build.
func newWorkerBuilder(cfg Config) (*builder, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	b := newBuilder(newSpace(cfg))
	b.prepare()
	return b, nil
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
	if b.aborted.Load() {
		return 0, ErrTimeout
	}
	return len(b.h), nil
}

// BuildWorkerMDP formulates and validates (but does not solve) the worker MDP
// for the configuration — the §4 transition-probability computation in
// isolation. The solver benchmarks use it to measure the Bellman sweep on a
// real worker-scale state space rather than a synthetic MDP.
func BuildWorkerMDP(cfg Config) (*mdp.Compiled, error) {
	b, err := newWorkerBuilder(cfg)
	if err != nil {
		return nil, err
	}
	return build(b, &b.solveSpec)
}

// Generate runs RAMSIS's offline phase for one worker: it formulates the
// worker MDP (§4), solves it (§4.1), and computes the §5.1 expectations over
// the induced stationary distribution, weighting each decision by the
// queries it serves.
func Generate(cfg Config) (*Policy, error) {
	return generateWith(cfg, mdp.MethodPrioritized)
}

// generateWith is Generate solved by method. Only the package's tests pass
// anything but the prioritized sweeps: mdp.MethodJacobi, the paper's
// byte-pinned sweep (§4.1), is the reference the goldens hash and the
// default's choices are pinned to.
func generateWith(cfg Config, method mdp.Method) (*Policy, error) {
	start := time.Now()
	b, err := newWorkerBuilder(cfg)
	if err != nil {
		return nil, err
	}
	sp := b.sp
	cfg = sp.cfg
	st, res, err := generate(b, &b.solveSpec, method, start, cfg.InitialValues)
	if err != nil {
		return nil, err
	}
	pol := &Policy{
		Task:      cfg.Models.Task,
		SLO:       cfg.SLO,
		Workers:   cfg.Workers,
		Load:      cfg.Arrival.Rate(),
		Batching:  cfg.Batching,
		Disc:      cfg.Disc,
		D:         cfg.D,
		MaxQueue:  cfg.MaxQueue,
		Balancing: cfg.Balancing,
		Pruned:    !cfg.NoParetoPruning,
		Grid:      sp.grid,
		Choices:   make([]Choice, st.States),
		stats:     st,
		space:     sp,
		values:    res.Values,
	}
	for s, ai := range res.Policy {
		pol.Choices[s] = b.choice(s, ai)
	}
	return pol, nil
}

// choice is the decision action ai of state s stands for.
func (b *builder) choice(s, ai int) Choice {
	a := b.acts[s][ai]
	if a.Model == arrivalAction {
		return Choice{Arrival: true, Satisfies: true}
	}
	return Choice{
		Model:     b.sp.models.Profiles[a.Model].Name,
		ModelIdx:  a.Model,
		Batch:     a.Batch,
		Latency:   a.Latency,
		Satisfies: a.Satisfies,
	}
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
