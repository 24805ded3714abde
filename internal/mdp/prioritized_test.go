package mdp

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"
)

// solvePrioritized is the test shorthand for the fast-resolve path.
func solvePrioritized(c *Compiled, opts SolveOptions) (Result, error) {
	opts.Method = MethodPrioritized
	return c.Solve(opts)
}

// TestPrioritizedMatchesJacobiFixedPoint pins the fast-resolve contract:
// prioritized Gauss-Seidel sweeps reach the same fixed point as the pinned
// Jacobi kernel within tolerance and extract the same greedy policy, on
// every equivalence fixture including the single-state MDP, with residual
// groups and with index bands (Ordered).
func TestPrioritizedMatchesJacobiFixedPoint(t *testing.T) {
	for name, m := range compiledFixtures() {
		c := Compile(m)
		opts := SolveOptions{Gamma: 0.95, Tol: 1e-10}
		want, err := c.ValueIteration(opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, ordered := range []bool{false, true} {
			opts.Ordered = ordered
			got, err := solvePrioritized(c, opts)
			if err != nil {
				t.Fatal(err)
			}
			for s := range want.Values {
				// Both vectors are within Tol/(1-gamma) of the true fixed
				// point; allow that bound between the two approximations.
				if d := math.Abs(got.Values[s] - want.Values[s]); d > 1e-10/(1-0.95)*2 {
					t.Fatalf("%s (ordered %v): prioritized V(%d) = %v, Jacobi %v (diff %g)", name, ordered, s, got.Values[s], want.Values[s], d)
				}
			}
			samePolicy(t, fmt.Sprintf("%s prioritized (ordered %v)", name, ordered), got.Policy, want.Policy)
		}
	}
}

// TestPrioritizedSingleState covers the degenerate space: one state, two
// actions, self-loops only — the priority queue's predecessor list is the
// state itself and the solve must still terminate at the right value.
func TestPrioritizedSingleState(t *testing.T) {
	m := &MDP{Actions: [][]Action{{
		{Label: 0, Reward: 1, Transitions: []Transition{{Next: 0, P: 1}}},
		{Label: 1, Reward: 3, Transitions: []Transition{{Next: 0, P: 1}}},
	}}}
	c := Compile(m)
	res, err := solvePrioritized(c, SolveOptions{Gamma: 0.9, Tol: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	want := 3 / (1 - 0.9) // reward 3 forever, discounted
	if math.Abs(res.Values[0]-want) > 1e-6 {
		t.Errorf("V(0) = %v, want %v", res.Values[0], want)
	}
	if res.Policy[0] != 1 {
		t.Errorf("policy picked action %d, want 1", res.Policy[0])
	}
}

// TestPrioritizedZeroResidualEarlyExit pins the warm-start fast path: a
// solve seeded with the exact fixed point finds every residual below Tol on
// the first verification sweep, enqueues nothing, and exits after exactly
// one sweep-equivalent.
func TestPrioritizedZeroResidualEarlyExit(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	c := Compile(randomMDP(rng, 60, 3, 5))
	opts := SolveOptions{Gamma: 0.95, Tol: 1e-9}
	cold, err := solvePrioritized(c, opts)
	if err != nil {
		t.Fatal(err)
	}
	warm := opts
	warm.InitialValues = cold.Values
	res, err := solvePrioritized(c, warm)
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations != 1 {
		t.Errorf("warm re-solve from the fixed point took %d sweep-equivalents, want 1", res.Iterations)
	}
	samePolicy(t, "zero-residual warm start", res.Policy, cold.Policy)
}

// TestPrioritizedWarmBeatsCold asserts the reason the adaptive route uses
// this solver: a warm start from a perturbed fixed point converges in
// strictly fewer sweep-equivalents than the cold solve.
func TestPrioritizedWarmBeatsCold(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	c := Compile(randomMDP(rng, 120, 4, 6))
	opts := SolveOptions{Gamma: 0.97, Tol: 1e-10}
	cold, err := solvePrioritized(c, opts)
	if err != nil {
		t.Fatal(err)
	}
	perturbed := make([]float64, len(cold.Values))
	for i, v := range cold.Values {
		perturbed[i] = v * (1 + 0.03*rng.Float64())
	}
	warm := opts
	warm.InitialValues = perturbed
	res, err := solvePrioritized(c, warm)
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations >= cold.Iterations {
		t.Errorf("warm prioritized took %d sweep-equivalents, cold took %d — want strictly fewer", res.Iterations, cold.Iterations)
	}
	samePolicy(t, "perturbed warm start", res.Policy, cold.Policy)
}

func TestPrioritizedDeadline(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	c := Compile(randomMDP(rng, 200, 4, 8))
	_, err := solvePrioritized(c, SolveOptions{
		Gamma:    0.999999,
		Tol:      1e-300, // unreachable: force the deadline path
		Deadline: time.Now().Add(5 * time.Millisecond),
	})
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("err = %v, want ErrDeadline", err)
	}
}

// TestPredecessorsCSR verifies the reverse adjacency on a hand-built chain:
// dedup across actions and transitions, and correct offsets.
func TestPredecessorsCSR(t *testing.T) {
	c := Compile(twoStateChain())
	p := c.predecessors()
	// State 0: reached only by state 0's action 0 self-loop.
	if got := p.at(0); len(got) != 1 || got[0] != 0 {
		t.Errorf("preds(0) = %v, want [0]", got)
	}
	// State 1: reached by state 0 (action 1) and state 1 (self-loop),
	// each once despite state 1's action also looping.
	if got := p.at(1); len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Errorf("preds(1) = %v, want [0 1]", got)
	}
}

// TestBucketQueue exercises the priority-bucket invariants: upgrades
// supersede stale entries, downgrades are no-ops, and pops come out in
// bucket order.
func TestBucketQueue(t *testing.T) {
	q := newBucketQueue(4, 1e-9)
	q.push(0, 1e-6)
	q.push(1, 1e-3)
	q.push(0, 1e-8) // downgrade: ignored, state 0 stays at 1e-6
	q.push(2, 1e-6)
	q.push(2, 1.0) // upgrade: the 1e-6 entry goes stale
	if s, ok := q.pop(); !ok || s != 2 {
		t.Fatalf("pop = %d, want 2 (highest bucket)", s)
	}
	if s, ok := q.pop(); !ok || s != 1 {
		t.Fatalf("pop = %d, want 1", s)
	}
	if s, ok := q.pop(); !ok || s != 0 {
		t.Fatalf("pop = %d, want 0", s)
	}
	if _, ok := q.pop(); ok {
		t.Fatal("queue should be empty (stale entry must not re-pop)")
	}
	// Residuals at or below tol never queue.
	q.push(3, 1e-9)
	if _, ok := q.pop(); ok {
		t.Fatal("sub-tolerance push queued a state")
	}
}
