package core

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"ramsis/internal/mdp"
)

// solveSpec is what the solve step reads from a Config or an LLMConfig.
type solveSpec struct {
	gamma    float64
	jacobi   bool
	deadline time.Time // zero: no limit
}

// budget is a generation deadline armed at the moment of the call (zero: no
// limit) that latches once it has passed, so the build's workers stop at
// their next state and the generator returns ErrTimeout without solving.
type budget struct {
	deadline time.Time
	aborted  atomic.Bool
}

func (b *budget) arm(timeout time.Duration) {
	if timeout > 0 {
		b.deadline = time.Now().Add(timeout)
	}
}

// expired reports (and latches) deadline expiry.
func (b *budget) expired() bool {
	if b.aborted.Load() {
		return true
	}
	if !b.deadline.IsZero() && time.Now().After(b.deadline) {
		b.aborted.Store(true)
		return true
	}
	return false
}

// solution is a solved MDP: the solver's result, the stationary distribution
// of the chain its policy induces, and the compile + solve wall time.
type solution struct {
	mdp.Result
	stationary []float64
	solveTime  time.Duration
}

// solve is the back half of every generator: validate the built MDP, compile
// it, solve it — prioritized sweeps unless the configuration asks for the
// paper's Jacobi sweep — and take the stationary distribution the §5.1
// expectations weight. warm is the initial value vector (nil: cold start);
// its length must be the MDP's state count.
func (sp solveSpec) solve(m *mdp.MDP, warm []float64) (*solution, error) {
	if err := m.Validate(1e-6); err != nil {
		return nil, fmt.Errorf("core: built MDP invalid: %w", err)
	}
	method := mdp.MethodPrioritized
	if sp.jacobi {
		method = mdp.MethodJacobi
	}
	// Compile once; the solve and the stationary-distribution pass both run
	// on the contiguous form.
	start := time.Now()
	cm := mdp.Compile(m)
	res, err := cm.Solve(mdp.SolveOptions{Gamma: sp.gamma, Deadline: sp.deadline, Method: method, InitialValues: warm})
	if errors.Is(err, mdp.ErrDeadline) {
		return nil, ErrTimeout
	}
	if err != nil {
		return nil, err
	}
	solveTime := time.Since(start)
	pi, err := cm.StationaryDistribution(res.Policy, 1e-13, 0)
	if err != nil {
		return nil, err
	}
	return &solution{Result: res, stationary: pi, solveTime: solveTime}, nil
}
