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
// stores only its non-negligible successor probabilities. Compiled, a CSR
// layout, is the one form: builders write rows with a Writer and Stitch its
// chunks, and every kernel runs on it. The tests pin the synchronous sweep
// and the stationary kernel bit for bit against a naive reference walking a
// test-only slice form expanded from Compiled (reference_test.go).
package mdp

import (
	"errors"
	"fmt"
	"time"
)

// MDP names Compiled only because bench/ (frozen between benchmark PRs)
// still declares *mdp.MDP; the next benchmark PR drops it with that use.
type MDP = Compiled

// Compile returns m, the one form there is. It stays declared only because
// bench/ (frozen between benchmark PRs) still calls it; the next benchmark
// PR drops it with that use.
func Compile(m *MDP) *Compiled { return m }

// Policy maps each state to the index, among that state's actions, of its
// chosen action.
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

// start applies the defaults, rejects a discount outside (0, 1) — NaN
// included — and returns a solve's first iterate over n states: zeros, or
// the warm start.
func (o SolveOptions) start(n int) (SolveOptions, []float64, error) {
	o = o.withDefaults()
	if !(o.Gamma > 0 && o.Gamma < 1) {
		return o, nil, fmt.Errorf("mdp: gamma %v outside (0,1)", o.Gamma)
	}
	if o.InitialValues != nil && len(o.InitialValues) != n {
		return o, nil, fmt.Errorf("mdp: initial values length %d != states %d", len(o.InitialValues), n)
	}
	v := make([]float64, n)
	copy(v, o.InitialValues)
	return o, v, nil
}
