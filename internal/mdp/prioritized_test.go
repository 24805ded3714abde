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
// actions, self-loops only — one moving state is never fewer than n/16, so
// every sweep takes the aggregation step with a single group, and the solve
// must still terminate at the right value.
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
// the first verification sweep, backs up nothing more, and exits after
// exactly one sweep-equivalent.
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

// slowStateMDP is n states of which only state 0 carries reward: a
// self-loop earning r per step. The other n−1 are zero-reward self-loops
// that never move, so every residual after the first sweep sits on state 0
// alone — one moving state, fewer than n/16 once n exceeds 16.
func slowStateMDP(n int, r float64) *MDP {
	m := &MDP{Actions: make([][]Action, n)}
	for s := range m.Actions {
		reward := 0.0
		if s == 0 {
			reward = r
		}
		m.Actions[s] = []Action{{Label: 0, Reward: reward, Transitions: []Transition{{Next: int32(s), P: 1}}}}
	}
	return m
}

// TestPrioritizedRestrictedEndgame pins the endgame's saving: with one slow
// state among 32, each round backs up that state alone up to n times before
// the next full sweep, so the solve spends about two sweep-equivalents per
// 33 contractions of the error. Full sweeps alone need about 2,000 at
// γ = 0.99 and Tol 1e-9.
func TestPrioritizedRestrictedEndgame(t *testing.T) {
	const gamma, tol = 0.99, 1e-9
	c := Compile(slowStateMDP(32, 1))
	res, err := solvePrioritized(c, SolveOptions{Gamma: gamma, Tol: tol})
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations >= 200 {
		t.Errorf("solve took %d sweep-equivalents, want < 200", res.Iterations)
	}
	if d := math.Abs(res.Values[0] - 1/(1-gamma)); d > tol/(1-gamma) {
		t.Errorf("V(0) = %v, want %v (diff %g)", res.Values[0], 1/(1-gamma), d)
	}
	for s, v := range res.Values[1:] {
		if v != 0 {
			t.Errorf("V(%d) = %v, want 0", s+1, v)
		}
	}
}

// TestPrioritizedEndgameEmptySet covers the endgame's guard: a first sweep
// whose only change equals Tol exactly is not converged (that needs a
// residual below Tol), yet no state moved by more than Tol, so the endgame
// finds no state to back up. It must fall through to the next full sweep,
// which converges, instead of spinning on the empty set; the solve runs on
// its own goroutine so a spin fails the test rather than hanging it.
func TestPrioritizedEndgameEmptySet(t *testing.T) {
	c := Compile(slowStateMDP(32, 1))
	done := make(chan Result, 1)
	go func() {
		res, err := solvePrioritized(c, SolveOptions{Gamma: 0.5, Tol: 1})
		if err != nil {
			t.Error(err)
		}
		done <- res
	}()
	select {
	case res := <-done:
		if res.Iterations != 2 {
			t.Errorf("solve took %d sweep-equivalents, want 2 full sweeps", res.Iterations)
		}
		if res.Values[0] != 1.5 {
			t.Errorf("V(0) = %v, want 1.5 after two sweeps", res.Values[0])
		}
	case <-time.After(5 * time.Second):
		t.Fatal("solve did not return: the endgame spins on an empty active set")
	}
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
