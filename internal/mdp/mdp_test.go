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
func twoStateChain() *MDP {
	return &MDP{Actions: [][]Action{
		{
			{Label: 0, Reward: 1, Transitions: []Transition{{Next: 0, P: 1}}},
			{Label: 1, Reward: 0, Transitions: []Transition{{Next: 1, P: 1}}},
		},
		{
			{Label: 0, Reward: 5, Transitions: []Transition{{Next: 1, P: 1}}},
		},
	}}
}

func TestValidate(t *testing.T) {
	m := twoStateChain()
	if err := m.Validate(1e-9); err != nil {
		t.Fatalf("valid MDP rejected: %v", err)
	}
	bad := &MDP{Actions: [][]Action{{{Reward: 0, Transitions: []Transition{{Next: 0, P: 0.5}}}}}}
	if err := bad.Validate(1e-9); err == nil {
		t.Error("under-normalized transitions accepted")
	}
	bad2 := &MDP{Actions: [][]Action{{{Transitions: []Transition{{Next: 5, P: 1}}}}}}
	if err := bad2.Validate(1e-9); err == nil {
		t.Error("out-of-range successor accepted")
	}
	empty := &MDP{Actions: [][]Action{{}}}
	if err := empty.Validate(1e-9); err == nil {
		t.Error("state with no actions accepted")
	}
	if err := (&MDP{}).Validate(1e-9); err == nil {
		t.Error("empty MDP accepted")
	}
}

func TestNumTransitions(t *testing.T) {
	if got := twoStateChain().NumTransitions(); got != 3 {
		t.Errorf("NumTransitions = %d, want 3", got)
	}
}

func TestValueIterationOptimalPolicy(t *testing.T) {
	res, err := Compile(twoStateChain()).ValueIteration(SolveOptions{Gamma: 0.9, Tol: 1e-12})
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
	c := Compile(twoStateChain())
	for _, g := range []float64{-0.5, 1.0, 2.0} {
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
		m := randomMDP(rng, 12, 3, 4)
		c := Compile(m)
		res, err := c.ValueIteration(SolveOptions{Gamma: 0.9, Tol: 1e-12})
		if err != nil {
			return false
		}
		// Bellman residual check.
		for s := range m.Actions {
			best := math.Inf(-1)
			for ai := range m.Actions[s] {
				a := &m.Actions[s][ai]
				q := a.Reward
				for _, tr := range a.Transitions {
					q += 0.9 * tr.P * res.Values[tr.Next]
				}
				best = math.Max(best, q)
			}
			if math.Abs(best-res.Values[s]) > 1e-6 {
				return false
			}
		}
		// Dominance over a random policy.
		pol := make(Policy, len(m.Actions))
		for s := range pol {
			pol[s] = rng.Intn(len(m.Actions[s]))
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
	m := &MDP{Actions: [][]Action{
		{{Transitions: []Transition{{Next: 0, P: 0.7}, {Next: 1, P: 0.3}}}},
		{{Transitions: []Transition{{Next: 0, P: 0.6}, {Next: 1, P: 0.4}}}},
	}}
	pi, err := Compile(m).StationaryDistribution(Policy{0, 0}, 1e-14, 0)
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
	m := &MDP{Actions: [][]Action{
		{{Transitions: []Transition{{Next: 1, P: 1}}}},
		{{Transitions: []Transition{{Next: 0, P: 1}}}},
	}}
	pi, err := Compile(m).StationaryDistribution(Policy{0, 0}, 1e-14, 0)
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
		m := randomMDP(rng, 15, 2, 5)
		pol := make(Policy, len(m.Actions))
		pi, err := Compile(m).StationaryDistribution(pol, 1e-12, 0)
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
		for s := range m.Actions {
			for _, tr := range m.Actions[s][pol[s]].Transitions {
				next[tr.Next] += pi[s] * tr.P
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
	m := randomMDP(rand.New(rand.NewSource(3)), 40, 1, 0)
	c, pol := Compile(m), make(Policy, 40)
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

// randomMDP builds a random ergodic MDP: every action's successor set
// includes all states with positive probability.
func randomMDP(rng *rand.Rand, states, actions, _ int) *MDP {
	m := &MDP{Actions: make([][]Action, states)}
	for s := 0; s < states; s++ {
		for a := 0; a < actions; a++ {
			ws := make([]float64, states)
			sum := 0.0
			for i := range ws {
				ws[i] = rng.Float64() + 0.01
				sum += ws[i]
			}
			act := Action{Label: a, Reward: rng.Float64()}
			for i, w := range ws {
				act.Transitions = append(act.Transitions, Transition{Next: int32(i), P: w / sum})
			}
			m.Actions[s] = append(m.Actions[s], act)
		}
	}
	return m
}
