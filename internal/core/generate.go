package core

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"ramsis/internal/mdp"
)

// stateSpace is one MDP formulation the shared generator runs: the scalar
// worker-queue space (builder, §4) or the token-load space (llmBuilder).
type stateSpace interface {
	numStates() int
	// newScratch returns one build goroutine's reusable space.
	newScratch() *stateScratch
	// row writes state s's actions and their successors to sc.w. It is
	// called once per state, from several goroutines at a time.
	row(s int, sc *stateScratch)
	// outcome reports what action a of state s serves.
	outcome(s, a int) outcome
}

// outcome is one action's share of the §5.1 expectations: the work it
// serves (queries in the batch, or prefill + decode tokens; 0 for the
// arrival action), the accuracy it earns, and whether it meets the SLO.
type outcome struct {
	work, accuracy float64
	satisfies      bool
}

// stats is what every generated policy reports about its MDP, its solve and
// its §5.1 guarantees. Policy and LLMPolicy embed it, so its fields
// serialize under the policy's own keys.
type stats struct {
	// ExpectedAccuracy is the §5.1 accuracy expectation: the mean profiled
	// accuracy of the satisfied work, weighted by the stationary
	// distribution π of the policy-induced chain and by the work each
	// decision serves (queries or tokens), a lower bound on the observed
	// value.
	ExpectedAccuracy float64 `json:"expectedAccuracy"`
	// ExpectedViolation is the §5.1 SLO violation-rate expectation: the
	// π- and work-weighted share of served work whose decision misses the
	// SLO, an upper bound on the observed value.
	ExpectedViolation float64 `json:"expectedViolation"`

	States      int           `json:"states"`
	Transitions int           `json:"transitions"`
	Iterations  int           `json:"iterations"`
	BuildTime   time.Duration `json:"buildTime"`
	SolveTime   time.Duration `json:"solveTime"`
}

// solveSpec is what generation reads from a Config or an LLMConfig: the
// solver settings and a deadline armed at the moment of the call (zero: no
// limit) that latches once it has passed, so the build's workers stop at
// their next state and the generator returns ErrTimeout without solving.
// ordered is set by a state space whose index is its load axis.
type solveSpec struct {
	gamma    float64
	jacobi   bool
	ordered  bool
	deadline time.Time
	aborted  atomic.Bool
}

func (sp *solveSpec) arm(gamma float64, jacobi bool, timeout time.Duration) {
	sp.gamma, sp.jacobi = gamma, jacobi
	if timeout > 0 {
		sp.deadline = time.Now().Add(timeout)
	}
}

// expired reports (and latches) deadline expiry.
func (sp *solveSpec) expired() bool {
	if sp.aborted.Load() {
		return true
	}
	if !sp.deadline.IsZero() && time.Now().After(sp.deadline) {
		sp.aborted.Store(true)
		return true
	}
	return false
}

// chunkStates is how many consecutive states a build goroutine writes before
// it cuts them into a chunk: its writer stays small, and cuts stay rare.
const chunkStates = 16

// build formulates (but does not solve) ss's MDP and validates it. States are
// independent, so chunks of consecutive states build across cores, each
// goroutine writing with its own scratch; the chunks are stitched in state
// order.
func build(ss stateSpace, spec *solveSpec) (*mdp.Compiled, error) {
	n := ss.numStates()
	chunks := make([]*mdp.Compiled, (n+chunkStates-1)/chunkStates)
	parallelForScratch(len(chunks), ss.newScratch, func(c int, sc *stateScratch) {
		for s := c * chunkStates; s < min(n, (c+1)*chunkStates); s++ {
			if spec.expired() {
				return
			}
			ss.row(s, sc)
		}
		chunks[c] = sc.w.Cut()
	})
	if spec.aborted.Load() {
		return nil, ErrTimeout
	}
	m, err := mdp.Stitch(chunks)
	if err == nil {
		err = m.Validate(1e-6)
	}
	if err != nil {
		return nil, fmt.Errorf("core: built MDP invalid: %w", err)
	}
	return m, nil
}

// generate is the offline phase every state space shares: build the MDP
// (§4), solve it — prioritized sweeps unless spec asks for the paper's
// Jacobi sweep (§4.1) — and weight the stationary distribution π of the
// chain its policy induces by the work each chosen action serves (§5.1).
// start is when the call began, so BuildTime counts the set-up too; warm
// seeds the solve and is dropped when its length is not the state count (a
// donor solved under different knobs). The result's Policy is each state's
// chosen action index.
func generate(ss stateSpace, spec *solveSpec, start time.Time, warm []float64) (st stats, res mdp.Result, err error) {
	m, err := build(ss, spec)
	if err != nil {
		return st, res, err
	}
	st.States, st.Transitions, st.BuildTime = m.NumStates(), m.NumTransitions(), time.Since(start)
	if len(warm) != st.States {
		warm = nil
	}
	method := mdp.MethodPrioritized
	if spec.jacobi {
		method = mdp.MethodJacobi
	}
	solveStart := time.Now()
	res, err = m.Solve(mdp.SolveOptions{Gamma: spec.gamma, Deadline: spec.deadline, Method: method, InitialValues: warm, Ordered: spec.ordered})
	if errors.Is(err, mdp.ErrDeadline) {
		return st, res, ErrTimeout
	}
	if err != nil {
		return st, res, err
	}
	st.SolveTime, st.Iterations = time.Since(solveStart), res.Iterations
	pi, err := m.StationaryDistribution(res.Policy, 1e-13, 0)
	if err != nil {
		return st, res, err
	}
	// The arrival action serves no work, so its w is 0 and it moves no sum.
	var served, violated, satisfied, accurate float64
	for s, a := range res.Policy {
		o := ss.outcome(s, a)
		w := pi[s] * o.work
		served += w
		if o.satisfies {
			satisfied += w
			accurate += w * o.accuracy
		} else {
			violated += w
		}
	}
	if served > 0 {
		st.ExpectedViolation = violated / served
	}
	if satisfied > 0 {
		st.ExpectedAccuracy = accurate / satisfied
	}
	return st, res, nil
}

// parallelFor runs fn(i) for i in [0, n) across GOMAXPROCS workers.
func parallelFor(n int, fn func(i int)) {
	parallelForScratch(n, func() *stateScratch { return nil }, func(i int, _ *stateScratch) { fn(i) })
}

// parallelForScratch runs fn(i, sc) for i in [0, n) across GOMAXPROCS
// workers, each with its own scratch value from mk.
func parallelForScratch(n int, mk func() *stateScratch, fn func(i int, sc *stateScratch)) {
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		sc := mk()
		for i := 0; i < n; i++ {
			fn(i, sc)
		}
		return
	}
	var wg sync.WaitGroup
	next := make(chan int, n)
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sc := mk()
			for i := range next {
				fn(i, sc)
			}
		}()
	}
	wg.Wait()
}
