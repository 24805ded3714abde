package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"ramsis/internal/llm"
	"ramsis/internal/mdp"
)

// gthStationary is the exact stationary distribution of the chain pol
// induces on m, by dense Grassmann–Taksar–Heyman elimination: states are
// censored out one by one, each pivot being the sum of the eliminated
// state's probabilities into the states still left, so no step subtracts.
// root is eliminated last. It must be recurrent, which makes every pivot
// positive; transient states then get exactly 0.
func gthStationary(t *testing.T, m *mdp.Compiled, pol mdp.Policy, root int) []float64 {
	t.Helper()
	n := m.NumStates()
	// Swap root and state 0, so elimination runs from n−1 down to 1.
	at := func(s int) int {
		switch s {
		case root:
			return 0
		case 0:
			return root
		}
		return s
	}
	a := make([]float64, n*n)
	for s := range n {
		_, next, prob := m.Action(s, pol[s])
		for k, nx := range next {
			a[at(s)*n+at(int(nx))] += prob[k]
		}
	}
	for k := n - 1; k > 0; k-- {
		pivot := 0.0
		for j := 0; j < k; j++ {
			pivot += a[k*n+j]
		}
		if pivot == 0 {
			t.Fatalf("GTH: state %d reaches no state left, so root %d is not recurrent", at(k), root)
		}
		for i := 0; i < k; i++ {
			f := a[i*n+k] / pivot
			a[i*n+k] = f
			if f == 0 {
				continue
			}
			for j := 0; j < k; j++ {
				a[i*n+j] += f * a[k*n+j]
			}
		}
	}
	x := make([]float64, n)
	x[0] = 1
	sum := 1.0
	for k := 1; k < n; k++ {
		for i := 0; i < k; i++ {
			x[k] += x[i] * a[i*n+k]
		}
		sum += x[k]
	}
	pi := make([]float64, n)
	for k := range x {
		pi[at(k)] = x[k] / sum
	}
	return pi
}

// assertStationary fails unless the π StationaryDistribution gives the
// chain pol induces on m, at the tolerance generate asks for, lies within
// 1e-12 in L1 of want — or of the GTH solve when want is nil. That solve is
// rooted at π's largest state, which is recurrent unless π is far off; a
// transient root fails it.
func assertStationary(t *testing.T, m *mdp.Compiled, pol mdp.Policy, want []float64) {
	t.Helper()
	pi, err := m.StationaryDistribution(pol, 1e-13, 0)
	if err != nil {
		t.Fatal(err)
	}
	if want == nil {
		root := 0
		for s := range pi {
			if pi[s] > pi[root] {
				root = s
			}
		}
		want = gthStationary(t, m, pol, root)
	}
	gap := 0.0
	for s := range pi {
		gap += math.Abs(pi[s] - want[s])
	}
	if gap > 1e-12 {
		t.Errorf("|π − π_ref|₁ = %.3g, want ≤ 1e-12", gap)
	}
}

// assertGenerateStationary builds ss's MDP, solves it as generate does and
// bounds the stationary pass on its policy against the GTH solve.
func assertGenerateStationary(t *testing.T, ss stateSpace, spec *solveSpec) {
	t.Helper()
	m, err := build(ss, spec)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Solve(mdp.SolveOptions{Gamma: spec.gamma, Method: mdp.MethodPrioritized, Ordered: spec.ordered})
	if err != nil {
		t.Fatal(err)
	}
	assertStationary(t, m, res.Policy, nil)
}

// TestStationaryMatchesGTH bounds the stationary pass against an exact dense
// solve on the chains the generator's policies induce: TestBuildGolden's
// 24-configuration grid, the repository benchmark's three token classes and
// its image problem at the eight rates TestDefaultSolverMatchesJacobi uses.
// Both builds fan states out across GOMAXPROCS goroutines, so `make goldens`
// runs it at one and two.
func TestStationaryMatchesGTH(t *testing.T) {
	buildGrid(func(name string, cfg Config) {
		t.Run(name, func(t *testing.T) {
			b, err := newWorkerBuilder(cfg)
			if err != nil {
				t.Fatal(err)
			}
			assertGenerateStationary(t, b, &b.solveSpec)
		})
	})
	for _, cls := range llm.Classes() {
		t.Run("bench/"+cls.Name, func(t *testing.T) {
			g, err := newLLMBuilder(benchLLMConfig(cls))
			if err != nil {
				t.Fatal(err)
			}
			assertGenerateStationary(t, g, &g.solveSpec)
		})
	}
	for _, load := range []float64{1200, 1600, 1800, 2300, 3000, 3700, 4200, 4400} {
		t.Run(fmt.Sprintf("bench/%v", load), func(t *testing.T) {
			b, err := newWorkerBuilder(benchConfig(load))
			if err != nil {
				t.Fatal(err)
			}
			assertGenerateStationary(t, b, &b.solveSpec)
		})
	}
}

// edge is one entry of a hand-written chain row.
type edge struct {
	next int32
	p    float64
}

// chain writes the one-action MDP whose rows are P.
func chain(rows [][]edge) *mdp.Compiled {
	var w mdp.Writer
	for _, row := range rows {
		w.State()
		w.Action(0)
		for _, e := range row {
			w.Edge(e.next, e.p)
		}
	}
	return w.Cut()
}

// randomRow spreads probability 1 over targets with random weights.
func randomRow(rng *rand.Rand, targets []int) []edge {
	row := make([]edge, len(targets))
	sum := 0.0
	for i, t := range targets {
		row[i] = edge{int32(t), 0.05 + rng.Float64()}
		sum += row[i].p
	}
	for i := range row {
		row[i].p /= sum
	}
	return row
}

// cyclicChain is a random chain of period k: the states are dealt at random
// into k classes, and each state moves to every state of the next class.
func cyclicChain(rng *rand.Rand, n, k int) *mdp.Compiled {
	classes := make([][]int, k)
	of := make([]int, n)
	for s := 0; s < n; s++ {
		c := s % k // every class non-empty
		if s >= k {
			c = rng.Intn(k)
		}
		of[s] = c
		classes[c] = append(classes[c], s)
	}
	rows := make([][]edge, n)
	for s := range rows {
		rows[s] = randomRow(rng, classes[(of[s]+1)%k])
	}
	return chain(rows)
}

// TestStationaryDistributionHardChains runs the stationary pass on the
// chains Gauss–Seidel is known to find hard — periodic, absorbing and
// reducible ones — against closed forms or the GTH solve. They sit here
// beside the GTH reference.
func TestStationaryDistributionHardChains(t *testing.T) {
	uniform := func(n int) []float64 {
		pi := make([]float64, n)
		for s := range pi {
			pi[s] = 1 / float64(n)
		}
		return pi
	}
	cycle := func(n int) *mdp.Compiled {
		rows := make([][]edge, n)
		for s := range rows {
			rows[s] = []edge{{int32((s + 1) % n), 1}}
		}
		return chain(rows)
	}
	rng := rand.New(rand.NewSource(7))
	all := func(n int) []int {
		ts := make([]int, n)
		for i := range ts {
			ts[i] = i
		}
		return ts
	}

	// One absorbing state, 11 of 30, which every other state can reach.
	absorbing := make([][]edge, 30)
	for s := range absorbing {
		absorbing[s] = randomRow(rng, all(30))
		if s == 11 {
			absorbing[s] = []edge{{11, 1}}
		}
	}
	onlyAbsorbing := make([]float64, 30)
	onlyAbsorbing[11] = 1

	// A recurrent class on the even states below 20, entered from the
	// transient odd states and from every state at 20 and above.
	var recurrent []int
	for s := 0; s < 20; s += 2 {
		recurrent = append(recurrent, s)
	}
	reducible := make([][]edge, 36)
	for s := range reducible {
		if s < 20 && s%2 == 0 {
			reducible[s] = randomRow(rng, recurrent)
		} else {
			reducible[s] = randomRow(rng, all(36))
		}
	}

	for _, c := range []struct {
		name string
		m    *mdp.Compiled
		want []float64 // nil: the GTH solve
	}{
		{"3-cycle", cycle(3), uniform(3)},
		{"7-cycle", cycle(7), uniform(7)},
		{"bipartite", cyclicChain(rng, 40, 2), nil},
		{"tripartite", cyclicChain(rng, 45, 3), nil},
		{"absorbing", chain(absorbing), onlyAbsorbing},
		{"transient", chain(reducible), nil},
	} {
		t.Run(c.name, func(t *testing.T) {
			assertStationary(t, c.m, make(mdp.Policy, c.m.NumStates()), c.want)
		})
	}
}
