// Package core implements RAMSIS, the paper's contribution: offline
// generation of per-worker model-selection policies from a Markov Decision
// Process whose transition probabilities are derived from the query arrival
// distribution and the load-balancing strategy (§3-§5), plus the policy
// objects the serving layer reads (state lookup, and the per-load ladder
// §3.2.2 selects from; a rung generated online is internal/adapt's).
// Solving is internal/mdp's: generate.go runs its prioritized method, or its
// Jacobi sweep when Config.Jacobi asks for the paper's.
package core

import (
	"fmt"
	"math"
	"time"

	"ramsis/internal/dist"
	"ramsis/internal/profile"
)

// Batching selects the action-space batching strategy (§4.3.2).
type Batching int

const (
	// MaximalBatching always serves all queued queries in one batch
	// (b = n), the paper's default.
	MaximalBatching Batching = iota
	// VariableBatching allows any batch size 1 <= b <= n.
	VariableBatching
)

func (b Batching) String() string {
	switch b {
	case MaximalBatching:
		return "max"
	case VariableBatching:
		return "variable"
	}
	return fmt.Sprintf("Batching(%d)", int(b))
}

// Discretization selects the slack-time discretization (§4.2).
type Discretization int

const (
	// FixedLength (FLD) uses the uniform grid {0, SLO/D, ..., SLO}.
	FixedLength Discretization = iota
	// ModelBased (MD) uses the unique inference latencies l_w(m,b) that
	// meet the SLO, with a zero floor bucket prepended for slacks below
	// the smallest latency.
	ModelBased
)

func (d Discretization) String() string {
	switch d {
	case FixedLength:
		return "FLD"
	case ModelBased:
		return "MD"
	}
	return fmt.Sprintf("Discretization(%d)", int(d))
}

// Balancing selects the load-balancing strategy the per-worker MDP accounts
// for in its transition probabilities (§3.2.1, Appendix I).
type Balancing int

const (
	// RoundRobin sends every K-th central-queue arrival to the worker.
	RoundRobin Balancing = iota
	// ShortestQueueFirst models join-the-shortest-queue via the Appendix I
	// conditional Poisson approximation.
	ShortestQueueFirst
	// PowerOfTwoChoices models the two-sample JSQ approximation via the
	// same conditional-Poisson machinery with the Mitzenmacher
	// doubly-exponential queue tail standing in for Appendix I's ρ^K term.
	PowerOfTwoChoices
)

func (b Balancing) String() string {
	switch b {
	case RoundRobin:
		return "round-robin"
	case ShortestQueueFirst:
		return "shortest-queue-first"
	case PowerOfTwoChoices:
		return "power-of-two-choices"
	}
	return fmt.Sprintf("Balancing(%d)", int(b))
}

// ParseBalancing maps a CLI strategy name to the Balancing assumption. It
// accepts the same aliases as lb.New so -lb flags configure both the
// offline MDP and the online balancer consistently; "" means round-robin.
func ParseBalancing(s string) (Balancing, error) {
	switch s {
	case "", "rr", "round-robin", "roundrobin":
		return RoundRobin, nil
	case "jsq", "shortest-queue", "sqf":
		return ShortestQueueFirst, nil
	case "p2c", "power-of-two", "poweroftwo":
		return PowerOfTwoChoices, nil
	}
	return RoundRobin, fmt.Errorf("core: unknown balancing strategy %q (want rr, jsq, or p2c)", s)
}

// ParseSolver maps a CLI solver name to Config.Jacobi: "" and "prioritized"
// are the default prioritized Gauss-Seidel sweeps, "vi" the paper's
// synchronous value iteration (§4.1).
func ParseSolver(s string) (jacobi bool, err error) {
	switch s {
	case "", "prioritized", "pvi":
		return false, nil
	case "vi", "value-iteration":
		return true, nil
	}
	return false, fmt.Errorf("core: unknown -solver %q (want prioritized or vi)", s)
}

// Config describes one worker-level policy-generation problem: the offline
// inputs of §3.1.1 plus the simplification knobs of §4.
type Config struct {
	// Models are the profiles pre-loaded on the worker.
	Models profile.Set
	// SLO is the response latency SLO in seconds.
	SLO float64
	// Workers is K, the number of workers the load balancer spreads the
	// central queue across.
	Workers int
	// Arrival is the query arrival distribution at the central queue.
	Arrival dist.Process

	// Batching strategy; default MaximalBatching.
	Batching Batching
	// Disc is the slack discretization; default FixedLength.
	Disc Discretization
	// D is the FLD resolution (grid {0, SLO/D, ..., SLO}); default 100.
	D int
	// MaxQueue is N_w, the worker queue bound; default DefaultMaxQueue. It
	// may exceed the profiled batch range: batches clamp to each model's
	// profiled maximum, so over-long queues drain in partial batches.
	MaxQueue int
	// NoParetoPruning disables the §4.3.3 action-space pruning.
	NoParetoPruning bool

	// Gamma is the value-iteration discount factor; default 0.99.
	Gamma float64
	// Jacobi solves with the paper's synchronous sweep (§4.1), whose values
	// are byte-pinned, instead of the default prioritized sweeps. Both stop
	// on a full sweep with residual below the solver tolerance, so either
	// greedy policy is within 2γ·Tol/(1−γ) ≈ 2·10⁻⁷ accuracy of optimal;
	// Jacobi takes ~2,000 sweeps to the default's 17–41 on the benchmark's
	// problems.
	Jacobi bool
	// ProbFloor prunes transition entries below it (their mass folds into
	// the overflow complement, which is conservative); default 1e-10.
	ProbFloor float64
	// FineCells is the quadrature resolution for transition integrals;
	// default 512.
	FineCells int
	// Balancing strategy; default RoundRobin.
	Balancing Balancing
	// Timeout aborts policy generation with ErrTimeout when exceeded
	// (0 means no limit). Used by the Table 2 runtime study.
	Timeout time.Duration

	// InitialValues optionally warm-starts the solver from a previously
	// converged value vector — typically a neighboring rate bucket's, whose
	// state space is identical because only the arrival process differs. It
	// never changes the solved policy's fixed point, only the iteration
	// count; it is silently ignored when its length does not match the
	// built MDP's state count (e.g. a donor solved under different knobs).
	InitialValues []float64
}

// DefaultMaxQueue is the worker queue bound N_w a zero Config.MaxQueue means:
// the MDP's state-space cap, and the per-worker unit of every online
// admission bound derived from it.
const DefaultMaxQueue = 32

// withDefaults returns a copy with zero fields replaced by defaults.
func (c Config) withDefaults() Config {
	if c.D == 0 {
		c.D = 100
	}
	if c.MaxQueue == 0 {
		c.MaxQueue = DefaultMaxQueue
	}
	if c.Gamma == 0 {
		c.Gamma = 0.99
	}
	if c.ProbFloor == 0 {
		c.ProbFloor = 1e-10
	}
	if c.FineCells == 0 {
		c.FineCells = 512
	}
	return c
}

// validate reports configuration errors.
func (c Config) validate() error {
	if c.Models.Len() == 0 {
		return fmt.Errorf("core: no models configured")
	}
	if !(c.SLO > 0) || math.IsInf(c.SLO, 0) {
		return fmt.Errorf("core: invalid SLO %v", c.SLO)
	}
	if c.Workers < 1 {
		return fmt.Errorf("core: invalid worker count %d", c.Workers)
	}
	if c.Arrival == nil {
		return fmt.Errorf("core: nil arrival distribution")
	}
	if c.D < 1 {
		return fmt.Errorf("core: invalid FLD resolution D=%d", c.D)
	}
	if c.MaxQueue < 1 {
		return fmt.Errorf("core: invalid max queue %d", c.MaxQueue)
	}
	return validateSolve(c.Gamma, c.ProbFloor)
}

// validateSolve rejects, NaN included, a discount outside (0, 1) and a
// transition floor outside [0, 1): a negative floor keeps every zero entry,
// so each row turns dense, and a NaN floor or one of 1 or more drops every
// entry, so each row is empty.
func validateSolve(gamma, floor float64) error {
	if !(gamma > 0 && gamma < 1) {
		return fmt.Errorf("core: discount %v outside (0,1)", gamma)
	}
	if !(floor >= 0 && floor < 1) {
		return fmt.Errorf("core: probability floor %v outside [0,1)", floor)
	}
	return nil
}
