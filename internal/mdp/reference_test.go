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

// refStationary is symmetric Gauss–Seidel on π = πP: each sweep sets
// x_t = Σ_{s≠t} x_s·P_st / (1 − P_tt) in place for t = 0…n−1 and then
// t = n−1…0, summing each target's in-edges in increasing source order and
// leaving an absorbing state as it is; then it renormalises, until the L1
// change over a sweep drops below tol.
func refStationary(m *MDP, pol Policy, tol float64) []float64 {
	n := m.NumStates()
	type edge struct {
		s int
		p float64
	}
	in := make([][]edge, n)
	self := make([]float64, n)
	for s := range m.Actions {
		for _, tr := range m.Actions[s][pol[s]].Transitions {
			if int(tr.Next) == s {
				self[s] += tr.P
			} else {
				in[tr.Next] = append(in[tr.Next], edge{s, tr.P})
			}
		}
	}
	x := make([]float64, n)
	for i := range x {
		x[i] = 1 / float64(n)
	}
	update := func(t int) {
		if 1-self[t] == 0 {
			return
		}
		acc := 0.0
		for _, e := range in[t] {
			acc += x[e.s] * e.p
		}
		x[t] = acc / (1 - self[t])
	}
	prev := make([]float64, n)
	for it := 0; it < 200000; it++ {
		copy(prev, x)
		for t := 0; t < n; t++ {
			update(t)
		}
		for t := n - 1; t >= 0; t-- {
			update(t)
		}
		sum, diff := 0.0, 0.0
		for _, p := range x {
			sum += p
		}
		for i := range x {
			x[i] /= sum
			diff += math.Abs(x[i] - prev[i])
		}
		if diff < tol {
			break
		}
	}
	return x
}
