package mdp

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"time"
)

// compiledFixtures is the table the equivalence tests sweep: hand-built and
// random MDPs covering degenerate sizes, state counts that don't divide the
// partition count, and varying action fan-out.
func compiledFixtures() map[string]*MDP {
	rng := rand.New(rand.NewSource(42))
	return map[string]*MDP{
		"twoStateChain": twoStateChain(),
		"single":        randomMDP(rng, 1, 2, 1),
		"small":         randomMDP(rng, 23, 3, 5),
		"medium":        randomMDP(rng, 157, 4, 8),
	}
}

func sameValues(t *testing.T, name string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", name, len(got), len(want))
	}
	for s := range want {
		if math.Float64bits(got[s]) != math.Float64bits(want[s]) {
			t.Fatalf("%s: V(%d) = %v differs from the reference %v", name, s, got[s], want[s])
		}
	}
}

func samePolicy(t *testing.T, name string, got, want Policy) {
	t.Helper()
	for s := range want {
		if got[s] != want[s] {
			t.Fatalf("%s: policy[%d] = %d differs from the reference %d", name, s, got[s], want[s])
		}
	}
}

// TestCompiledValueIterationByteIdentical pins the compiled-core contract:
// the kernel performs the same floating-point operations in the same order
// as the naive slice walk of reference_test.go, so values and policies match
// bit for bit — cold and warm-started.
func TestCompiledValueIterationByteIdentical(t *testing.T) {
	for name, m := range compiledFixtures() {
		c := Compile(m)
		opts := SolveOptions{Gamma: 0.95, Tol: 1e-10}
		want := refValueIteration(m, opts)
		got, err := c.ValueIteration(opts)
		if err != nil {
			t.Fatal(err)
		}
		if got.Iterations != want.Iterations {
			t.Errorf("%s: %d iterations, reference took %d", name, got.Iterations, want.Iterations)
		}
		sameValues(t, name, got.Values, want.Values)
		samePolicy(t, name, got.Policy, want.Policy)

		// Warm starts must also be byte-identical.
		warm := opts
		warm.InitialValues = want.Values
		wantW := refValueIteration(m, warm)
		gotW, err := c.ValueIteration(warm)
		if err != nil {
			t.Fatal(err)
		}
		if gotW.Iterations != wantW.Iterations {
			t.Errorf("%s warm: %d iterations, reference took %d", name, gotW.Iterations, wantW.Iterations)
		}
		sameValues(t, name+" warm", gotW.Values, wantW.Values)
		samePolicy(t, name+" warm", gotW.Policy, wantW.Policy)
	}
}

func TestCompiledStationaryDistributionByteIdentical(t *testing.T) {
	for name, m := range compiledFixtures() {
		c := Compile(m)
		pol := make(Policy, m.NumStates())
		want := refStationary(m, pol, 1e-13)
		got, err := c.StationaryDistribution(pol, 1e-13, 0)
		if err != nil {
			t.Fatal(err)
		}
		sameValues(t, name, got, want)
	}
}

func TestCompileShapes(t *testing.T) {
	m := twoStateChain()
	c := Compile(m)
	if c.n != m.NumStates() {
		t.Errorf("compiled %d states, want %d", c.n, m.NumStates())
	}
	if len(c.next) != m.NumTransitions() {
		t.Errorf("compiled %d transitions, want %d", len(c.next), m.NumTransitions())
	}
	if got := len(c.reward); got != 3 {
		t.Errorf("compiled %d actions, want 3", got)
	}
}

// TestWarmStartConvergesFaster asserts the warm-start contract: seeding the
// solve with an already (or nearly) converged vector reaches the same fixed
// point in no more iterations than the cold solve — and from the exact fixed
// point, in a single verification sweep.
func TestWarmStartConvergesFaster(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	m := randomMDP(rng, 80, 4, 6)
	c := Compile(m)
	opts := SolveOptions{Gamma: 0.97, Tol: 1e-10}
	cold, err := c.ValueIteration(opts)
	if err != nil {
		t.Fatal(err)
	}

	// From the converged vector itself: one sweep confirms convergence.
	exact := opts
	exact.InitialValues = cold.Values
	res, err := c.ValueIteration(exact)
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations != 1 {
		t.Errorf("warm start from the fixed point took %d iterations, want 1", res.Iterations)
	}
	samePolicy(t, "fixed-point warm start", res.Policy, cold.Policy)

	// From a perturbed neighborhood of the fixed point (a stand-in for an
	// adjacent rate bucket's values): fewer iterations, same fixed point.
	perturbed := make([]float64, len(cold.Values))
	for i, v := range cold.Values {
		perturbed[i] = v * (1 + 0.05*rng.Float64())
	}
	near := opts
	near.InitialValues = perturbed
	warm, err := c.ValueIteration(near)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Iterations >= cold.Iterations {
		t.Errorf("warm start took %d iterations, cold took %d — want strictly fewer", warm.Iterations, cold.Iterations)
	}
	samePolicy(t, "perturbed warm start", warm.Policy, cold.Policy)
	for s := range cold.Values {
		if math.Abs(warm.Values[s]-cold.Values[s]) > 1e-6 {
			t.Fatalf("warm fixed point V(%d) = %v drifted from cold %v", s, warm.Values[s], cold.Values[s])
		}
	}
}

func TestWarmStartLengthMismatchRejected(t *testing.T) {
	c := Compile(twoStateChain())
	bad := SolveOptions{Gamma: 0.9, InitialValues: []float64{1}}
	if _, err := c.ValueIteration(bad); err == nil {
		t.Error("compiled ValueIteration accepted a mismatched warm start")
	}
}

func TestCompiledValueIterationDeadline(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	c := Compile(randomMDP(rng, 200, 4, 8))
	_, err := c.ValueIteration(SolveOptions{
		Gamma:    0.999999,
		Tol:      1e-300, // unreachable: force the deadline path
		Deadline: time.Now().Add(5 * time.Millisecond),
	})
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("err = %v, want ErrDeadline", err)
	}
}
