package mdp

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"
)

// compiledFixtures is the table the equivalence tests sweep: hand-built and
// random MDPs covering degenerate sizes, state counts that don't divide the
// partition count, and varying action fan-out.
func compiledFixtures() map[string]*Compiled {
	rng := rand.New(rand.NewSource(42))
	return map[string]*Compiled{
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
	for name, c := range compiledFixtures() {
		m := expand(c)
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
	for name, c := range compiledFixtures() {
		m := expand(c)
		pol := make(Policy, c.NumStates())
		want := refStationary(m, pol, 1e-13)
		got, err := c.StationaryDistribution(pol, 1e-13, 0)
		if err != nil {
			t.Fatal(err)
		}
		sameValues(t, name, got, want)
	}
}

// TestStitchShapes checks the stitched form's arrays on the two-state chain
// written one state per chunk.
func TestStitchShapes(t *testing.T) {
	rows := expand(twoStateChain())
	var w Writer
	rows.write(&w, 0, 1)
	first := w.Cut()
	rows.write(&w, 1, 2)
	c, err := Stitch([]*Compiled{first, w.Cut()})
	if err != nil {
		t.Fatal(err)
	}
	if c.NumStates() != 2 || c.NumTransitions() != 3 || len(c.reward) != 3 {
		t.Errorf("stitched %d states, %d actions, %d transitions; want 2, 3, 3", c.NumStates(), len(c.reward), c.NumTransitions())
	}
	if !slices.Equal(c.actOff, []int32{0, 2, 3}) || !slices.Equal(c.trOff, []int32{0, 1, 2, 3}) {
		t.Errorf("offsets %v / %v, want [0 2 3] / [0 1 2 3]", c.actOff, c.trOff)
	}
	if !slices.Equal(c.next, []int32{0, 1, 1}) || !slices.Equal(c.reward, []float64{1, 0, 5}) {
		t.Errorf("successors %v, rewards %v; want [0 1 1], [1 0 5]", c.next, c.reward)
	}
}

// TestStitchMatchesOneChunk writes the medium fixture's rows in chunks of
// uneven size, an empty one among them, through one reused Writer: the
// stitched arrays must equal a one-chunk build of the same rows, and read
// back as the same rows.
func TestStitchMatchesOneChunk(t *testing.T) {
	whole := compiledFixtures()["medium"]
	rows := expand(whole)
	var w Writer
	var chunks []*Compiled
	s := 0
	for _, size := range []int{1, 0, 23, 2, 64, 16, 51} {
		rows.write(&w, s, s+size)
		chunks = append(chunks, w.Cut())
		s += size
	}
	if s != len(rows) {
		t.Fatalf("chunks cover %d of %d states", s, len(rows))
	}
	c, err := Stitch(chunks)
	if err != nil {
		t.Fatal(err)
	}
	if c.n != whole.n || !slices.Equal(c.actOff, whole.actOff) || !slices.Equal(c.trOff, whole.trOff) ||
		!slices.Equal(c.next, whole.next) || !slices.Equal(c.reward, whole.reward) || !slices.Equal(c.prob, whole.prob) {
		t.Fatal("stitched arrays differ from the one-chunk build")
	}
	if !reflect.DeepEqual(expand(c), rows) {
		t.Fatal("stitched rows read back differently")
	}
	if err := c.Validate(1e-9); err != nil {
		t.Fatal(err)
	}
}

// TestWarmStartConvergesFaster asserts the warm-start contract: seeding the
// solve with an already (or nearly) converged vector reaches the same fixed
// point in no more iterations than the cold solve — and from the exact fixed
// point, in a single verification sweep.
func TestWarmStartConvergesFaster(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	c := randomMDP(rng, 80, 4, 6)
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
	c := twoStateChain()
	bad := SolveOptions{Gamma: 0.9, InitialValues: []float64{1}}
	if _, err := c.ValueIteration(bad); err == nil {
		t.Error("compiled ValueIteration accepted a mismatched warm start")
	}
}

func TestCompiledValueIterationDeadline(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	c := randomMDP(rng, 200, 4, 8)
	_, err := c.ValueIteration(SolveOptions{
		Gamma:    0.999999,
		Tol:      1e-300, // unreachable: force the deadline path
		Deadline: time.Now().Add(5 * time.Millisecond),
	})
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("err = %v, want ErrDeadline", err)
	}
}
