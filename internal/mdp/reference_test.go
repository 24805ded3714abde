package mdp

import "math"

// The reference solvers: the textbook algorithms walked naively over the
// slice form — serial, no deadline, no precomputed tables. The compiled
// kernels are pinned against them bit for bit (the *ByteIdentical tests), so
// the floating-point order written here is the order the kernels must keep.

// refQ is one action's Bellman backup against v.
func refQ(a *Action, gamma float64, v []float64) float64 {
	q := a.Reward
	for _, tr := range a.Transitions {
		q += gamma * tr.P * v[tr.Next]
	}
	return q
}

// refGreedy returns a state's best backup value and action, the first of
// equals.
func refGreedy(acts []Action, gamma float64, v []float64) (float64, int) {
	best, bestA := math.Inf(-1), 0
	for ai := range acts {
		if q := refQ(&acts[ai], gamma, v); q > best {
			best, bestA = q, ai
		}
	}
	return best, bestA
}

// refValueIteration is synchronous (Jacobi, double-buffered) value iteration.
func refValueIteration(m *MDP, o SolveOptions) Result {
	o = o.withDefaults()
	v := make([]float64, m.NumStates())
	copy(v, o.InitialValues) // warm start, or zeros
	next := make([]float64, len(v))
	pol := make(Policy, len(v))
	for it := 1; ; it++ {
		residual := 0.0
		for s, acts := range m.Actions {
			best, bestA := refGreedy(acts, o.Gamma, v)
			residual = math.Max(residual, math.Abs(best-v[s]))
			next[s], pol[s] = best, bestA
		}
		v, next = next, v
		if residual < o.Tol || it == o.MaxIter {
			return Result{Values: v, Policy: pol, Iterations: it}
		}
	}
}

// refPolicyEvaluation evaluates a fixed policy by in-place backups. No kernel
// is pinned against it: it is what the optimality property test measures a
// random policy's value with.
func refPolicyEvaluation(m *MDP, pol Policy, o SolveOptions) []float64 {
	o = o.withDefaults()
	v := make([]float64, m.NumStates())
	copy(v, o.InitialValues) // warm start, or zeros
	for it := 0; it < o.MaxIter; it++ {
		residual := 0.0
		for s := range m.Actions {
			q := refQ(&m.Actions[s][pol[s]], o.Gamma, v)
			residual = math.Max(residual, math.Abs(q-v[s]))
			v[s] = q
		}
		if residual < o.Tol {
			break
		}
	}
	return v
}

// refStationary is power iteration on the lazy chain (I+P)/2 of the policy,
// renormalized every step, until the L1 change drops below tol.
func refStationary(m *MDP, pol Policy, tol float64) []float64 {
	n := m.NumStates()
	x := make([]float64, n)
	for i := range x {
		x[i] = 1 / float64(n)
	}
	next := make([]float64, n)
	for it := 0; it < 200000; it++ {
		for i := range next {
			next[i] = 0.5 * x[i]
		}
		for s := range m.Actions {
			for _, tr := range m.Actions[s][pol[s]].Transitions {
				next[tr.Next] += 0.5 * x[s] * tr.P
			}
		}
		sum, diff := 0.0, 0.0
		for _, p := range next {
			sum += p
		}
		for i := range next {
			next[i] /= sum
			diff += math.Abs(next[i] - x[i])
		}
		if x, next = next, x; diff < tol {
			break
		}
	}
	return x
}
