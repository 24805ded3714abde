// Package mdp implements finite Markov Decision Processes and the solution
// methods RAMSIS uses for policy generation (§4.1): value iteration — the
// paper's synchronous sweep (the default) and an asynchronous Gauss-Seidel
// variant for fast re-solves, which corrects with aggregation steps while
// most states move and finishes with passes restricted to the states still
// moving — and symmetric Gauss-Seidel over the induced Markov chain for the
// stationary state distribution underlying the §5.1 accuracy/violation
// expectations.
//
// The representation is deliberately sparse: worker MDPs concentrate
// transition mass on a small neighborhood of queue states, so each action
// stores only its non-negligible successor probabilities. MDP is the form
// callers build; both solvers run on Compiled, its flattened CSR form, and
// each exists once — the tests pin the synchronous sweep and the stationary
// kernel bit for bit against a naive slice-walking reference that lives in
// reference_test.go.
package mdp

import (
	"errors"
	"fmt"
	"math"
	"time"
)

// Transition is one sparse entry of P_a(s, ·).
type Transition struct {
	Next int32   // successor state index
	P    float64 // transition probability
}

// Action is one action available in a state: an expected immediate reward
// and a sparse successor distribution. Label is an opaque caller tag (RAMSIS
// stores the (model, batch) action index there).
type Action struct {
	Label       int
	Reward      float64
	Transitions []Transition
}

// MDP is a finite MDP in sparse form: Actions[s] lists the valid actions in
// state s. Every state must have at least one action and every action's
// transition probabilities must sum to 1.
type MDP struct {
	Actions [][]Action
}

// NumStates returns |S|.
func (m *MDP) NumStates() int { return len(m.Actions) }

// NumTransitions returns the total sparse transition count, a measure of
// solve cost per sweep.
func (m *MDP) NumTransitions() int {
	n := 0
	for _, acts := range m.Actions {
		for _, a := range acts {
			n += len(a.Transitions)
		}
	}
	return n
}

// Validate checks structural soundness: non-empty action sets, successor
// indices in range, probabilities in [0,1] summing to 1 within tol.
func (m *MDP) Validate(tol float64) error {
	n := len(m.Actions)
	if n == 0 {
		return errors.New("mdp: no states")
	}
	for s, acts := range m.Actions {
		if len(acts) == 0 {
			return fmt.Errorf("mdp: state %d has no actions", s)
		}
		for ai, a := range acts {
			sum := 0.0
			for _, tr := range a.Transitions {
				if tr.Next < 0 || int(tr.Next) >= n {
					return fmt.Errorf("mdp: state %d action %d: successor %d out of range", s, ai, tr.Next)
				}
				if tr.P < -tol || tr.P > 1+tol || math.IsNaN(tr.P) {
					return fmt.Errorf("mdp: state %d action %d: probability %v invalid", s, ai, tr.P)
				}
				sum += tr.P
			}
			if math.Abs(sum-1) > tol {
				return fmt.Errorf("mdp: state %d action %d: probabilities sum to %v", s, ai, sum)
			}
		}
	}
	return nil
}

// Policy maps each state to the index (into MDP.Actions[s]) of its chosen
// action.
type Policy []int

// ErrDeadline reports that a solver hit its wall-clock deadline.
var ErrDeadline = errors.New("mdp: solve deadline exceeded")

// SolveOptions configure the iterative solvers. Zero values select the
// defaults noted per field.
type SolveOptions struct {
	// Gamma is the discount factor in (0, 1). Default 0.99.
	Gamma float64
	// Tol is the Bellman-residual stopping tolerance. Default 1e-9.
	Tol float64
	// MaxIter bounds iterations. Default 100000.
	MaxIter int
	// Deadline, when non-zero, aborts the solve with ErrDeadline once the
	// wall clock passes it (checked once per sweep).
	Deadline time.Time
	// Parallel selects nothing: the goroutine sweep pool it once sized did
	// not pay for itself and is gone (DESIGN.md § Solver performance). The
	// field stays declared only because bench/ (frozen between benchmark
	// PRs) still sets it; the next benchmark PR drops it with that use.
	Parallel int
	// InitialValues, when non-nil, warm-starts the solve from a previously
	// converged value vector instead of zeros. Its length must equal the
	// MDP's state count. Warm starts do not change the fixed point — only
	// the iteration count to reach it — so a re-solve seeded from a
	// neighboring problem's values (e.g. an adjacent rate bucket) converges
	// in fewer sweeps.
	InitialValues []float64
	// Method selects the sweep strategy for Compiled.Solve: the default
	// synchronous Jacobi sweep or asynchronous prioritized value iteration
	// (Gauss-Seidel sweeps with aggregation corrections and a restricted
	// endgame, the fast-resolve path).
	Method Method
	// Ordered declares that state indices run along one ordered axis, as
	// the token MDP's load buckets do. The prioritized solve's aggregation
	// step then groups contiguous index bands instead of residual
	// quantiles, falling back to quantiles if a band correction stalls.
	Ordered bool
}

func (o SolveOptions) withDefaults() SolveOptions {
	if o.Gamma == 0 {
		o.Gamma = 0.99
	}
	if o.Tol == 0 {
		o.Tol = 1e-9
	}
	if o.MaxIter == 0 {
		o.MaxIter = 100000
	}
	return o
}

// Result reports a solve: optimal state values, the policy, and the
// iteration count used.
type Result struct {
	Values     []float64
	Policy     Policy
	Iterations int
}

// initialValues validates and applies a warm start into v (already zeroed).
func (o SolveOptions) initialValues(v []float64) error {
	if o.InitialValues == nil {
		return nil
	}
	if len(o.InitialValues) != len(v) {
		return fmt.Errorf("mdp: initial values length %d != states %d", len(o.InitialValues), len(v))
	}
	copy(v, o.InitialValues)
	return nil
}
