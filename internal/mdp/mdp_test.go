package mdp

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// twoStateChain: state 0 has actions "stay" (reward 1) and "go" (reward 0,
// moves to 1); state 1 has only "stay" with reward 5. With any discount
// close to 1, the optimal policy leaves state 0.
func twoStateChain() *Compiled {
	return refMDP{
		{
			{reward: 1, edges: []refEdge{{0, 1}}},
			{reward: 0, edges: []refEdge{{1, 1}}},
		},
		{
			{reward: 5, edges: []refEdge{{1, 1}}},
		},
	}.compile()
}

// TestValidate runs every check Validate makes on hand-written MDPs, and
// pins each one's message.
func TestValidate(t *testing.T) {
	if err := twoStateChain().Validate(1e-9); err != nil {
		t.Fatalf("valid MDP rejected: %v", err)
	}
	one := func(edges ...refEdge) refMDP { return refMDP{{{edges: edges}}} }
	for name, c := range map[string]struct {
		m    refMDP
		want string
	}{
		"under-normalized":      {one(refEdge{0, 0.5}), "mdp: state 0 action 0: probabilities sum to 0.5"},
		"out-of-range":          {one(refEdge{5, 1}), "mdp: state 0 action 0: successor 5 out of range"},
		"negative successor":    {one(refEdge{-1, 1}), "mdp: state 0 action 0: successor -1 out of range"},
		"negative probability":  {one(refEdge{0, -0.5}, refEdge{0, 1.5}), "mdp: state 0 action 0: probability -0.5 invalid"},
		"probability above one": {one(refEdge{0, 1.5}), "mdp: state 0 action 0: probability 1.5 invalid"},
		"NaN probability":       {one(refEdge{0, math.NaN()}), "mdp: state 0 action 0: probability NaN invalid"},
		"no actions":            {refMDP{{}}, "mdp: state 0 has no actions"},
		"second state":          {refMDP{{{edges: []refEdge{{1, 1}}}}, {}}, "mdp: state 1 has no actions"},
		"second action":         {refMDP{{{edges: []refEdge{{0, 1}}}, {edges: []refEdge{{0, 0.25}}}}}, "mdp: state 0 action 1: probabilities sum to 0.25"},
		"no states":             {refMDP{}, "mdp: no states"},
	} {
		err := c.m.compile().Validate(1e-9)
		if err == nil || err.Error() != c.want {
			t.Errorf("%s: Validate = %v, want %q", name, err, c.want)
		}
	}
}

func TestNumTransitions(t *testing.T) {
	if got := twoStateChain().NumTransitions(); got != 3 {
		t.Errorf("NumTransitions = %d, want 3", got)
	}
}

func TestValueIterationOptimalPolicy(t *testing.T) {
	res, err := twoStateChain().ValueIteration(SolveOptions{Gamma: 0.9, Tol: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	if res.Policy[0] != 1 {
		t.Errorf("policy[0] = %d, want 1 (move to the high-reward state)", res.Policy[0])
	}
	// V(1) = 5 / (1 - 0.9) = 50; V(0) = 0 + 0.9*50 = 45.
	if math.Abs(res.Values[1]-50) > 1e-6 {
		t.Errorf("V(1) = %v, want 50", res.Values[1])
	}
	if math.Abs(res.Values[0]-45) > 1e-6 {
		t.Errorf("V(0) = %v, want 45", res.Values[0])
	}
}

func TestValueIterationRejectsBadGamma(t *testing.T) {
	c := twoStateChain()
	for _, g := range []float64{-0.5, 1.0, 2.0, math.NaN()} {
		for _, method := range []Method{MethodJacobi, MethodPrioritized} {
			if _, err := c.Solve(SolveOptions{Gamma: g, Method: method}); err == nil {
				t.Errorf("%s: gamma %v accepted", method, g)
			}
		}
	}
}

func TestValueIterationValuesAreOptimalProperty(t *testing.T) {
	// Property: on random MDPs, the VI value function satisfies the Bellman
	// optimality equation and dominates the value of a random policy.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := randomMDP(rng, 12, 3, 4)
		m := expand(c)
		res, err := c.ValueIteration(SolveOptions{Gamma: 0.9, Tol: 1e-12})
		if err != nil {
			return false
		}
		// Bellman residual check.
		for s := range m {
			best := math.Inf(-1)
			for ai := range m[s] {
				best = math.Max(best, refQ(&m[s][ai], 0.9, res.Values))
			}
			if math.Abs(best-res.Values[s]) > 1e-6 {
				return false
			}
		}
		// Dominance over a random policy.
		pol := make(Policy, len(m))
		for s := range pol {
			pol[s] = rng.Intn(len(m[s]))
		}
		v := refPolicyEvaluation(m, pol, SolveOptions{Gamma: 0.9, Tol: 1e-12})
		for s := range v {
			if v[s] > res.Values[s]+1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestStationaryDistribution(t *testing.T) {
	// Two-state chain with P(0->1)=0.3, P(1->0)=0.6: stationary = (2/3, 1/3).
	m := refMDP{
		{{edges: []refEdge{{0, 0.7}, {1, 0.3}}}},
		{{edges: []refEdge{{0, 0.6}, {1, 0.4}}}},
	}
	pi, err := m.compile().StationaryDistribution(Policy{0, 0}, 1e-14, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(pi[0]-2.0/3) > 1e-8 || math.Abs(pi[1]-1.0/3) > 1e-8 {
		t.Errorf("stationary = %v, want [2/3, 1/3]", pi)
	}
}

func TestStationaryDistributionPeriodicChain(t *testing.T) {
	// A strictly periodic two-cycle: the lazy iteration must still converge
	// to (1/2, 1/2).
	m := refMDP{
		{{edges: []refEdge{{1, 1}}}},
		{{edges: []refEdge{{0, 1}}}},
	}
	pi, err := m.compile().StationaryDistribution(Policy{0, 0}, 1e-14, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(pi[0]-0.5) > 1e-8 {
		t.Errorf("stationary = %v, want [0.5, 0.5]", pi)
	}
}

func TestStationaryDistributionSumsToOneProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := randomMDP(rng, 15, 2, 5)
		pol := make(Policy, c.NumStates())
		pi, err := c.StationaryDistribution(pol, 1e-12, 0)
		if err != nil {
			return false
		}
		sum := 0.0
		for _, p := range pi {
			if p < -1e-12 {
				return false
			}
			sum += p
		}
		if math.Abs(sum-1) > 1e-9 {
			return false
		}
		// Fixed point: pi P = pi.
		next := make([]float64, len(pi))
		for s, acts := range expand(c) {
			for _, e := range acts[pol[s]].edges {
				next[e.next] += pi[s] * e.p
			}
		}
		for i := range next {
			if math.Abs(next[i]-pi[i]) > 1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestStationaryDistributionNotConverged: running out of sweeps is an
// error, not a silently unconverged π. The chain needs about ten sweeps to
// reach the tolerance; three are not enough.
func TestStationaryDistributionNotConverged(t *testing.T) {
	c, pol := randomMDP(rand.New(rand.NewSource(3)), 40, 1, 0), make(Policy, 40)
	if _, err := c.StationaryDistribution(pol, 1e-13, 0); err != nil {
		t.Fatalf("default sweep budget: %v", err)
	}
	pi, err := c.StationaryDistribution(pol, 1e-13, 3)
	if err == nil {
		t.Fatalf("three sweeps returned π = %v and no error", pi[:3])
	}
	if pi != nil {
		t.Errorf("unconverged π returned beside the error %v", err)
	}
}

// randomMDP writes a random ergodic MDP: every action's successor set
// includes all states with positive probability.
func randomMDP(rng *rand.Rand, states, actions, _ int) *Compiled {
	var w Writer
	for s := 0; s < states; s++ {
		w.State()
		for a := 0; a < actions; a++ {
			ws := make([]float64, states)
			sum := 0.0
			for i := range ws {
				ws[i] = rng.Float64() + 0.01
				sum += ws[i]
			}
			w.Action(rng.Float64())
			for i, x := range ws {
				w.Edge(int32(i), x/sum)
			}
		}
	}
	return w.Cut()
}
