package mdp

import "math"

// The reference solvers: the textbook algorithms walked naively over a
// slice form — serial, no deadline, no precomputed tables. The compiled
// kernels are pinned against them bit for bit (the *ByteIdentical tests), so
// the floating-point order written here is the order the kernels must keep.

// refMDP is the slice form: refMDP[s] lists state s's actions. The fixtures
// are written in it and compiled with the Writer; the reference solvers walk
// the form expand reads back out of the compiled arrays, so they share no
// code with the kernels.
type refMDP [][]refAction

// refAction is one action: its reward and its sparse successor row.
type refAction struct {
	reward float64
	edges  []refEdge
}

// refEdge is one successor and its probability.
type refEdge struct {
	next int32
	p    float64
}

// write writes states [lo, hi) of m with w.
func (m refMDP) write(w *Writer, lo, hi int) {
	for _, acts := range m[lo:hi] {
		w.State()
		for _, a := range acts {
			w.Action(a.reward)
			for _, e := range a.edges {
				w.Edge(e.next, e.p)
			}
		}
	}
}

// compile writes m with the Writer, as one chunk.
func (m refMDP) compile() *Compiled {
	var w Writer
	m.write(&w, 0, len(m))
	return w.Cut()
}

// expand reads c's arrays back into the slice form, state by state and
// action by action.
func expand(c *Compiled) refMDP {
	m := make(refMDP, c.n)
	for s := range m {
		for a := c.actOff[s]; a < c.actOff[s+1]; a++ {
			act := refAction{reward: c.reward[a]}
			for k := c.trOff[a]; k < c.trOff[a+1]; k++ {
				act.edges = append(act.edges, refEdge{c.next[k], c.prob[k]})
			}
			m[s] = append(m[s], act)
		}
	}
	return m
}

// refQ is one action's Bellman backup against v.
func refQ(a *refAction, gamma float64, v []float64) float64 {
	q := a.reward
	for _, e := range a.edges {
		q += gamma * e.p * v[e.next]
	}
	return q
}

// refGreedy returns a state's best backup value and action, the first of
// equals.
func refGreedy(acts []refAction, gamma float64, v []float64) (float64, int) {
	best, bestA := math.Inf(-1), 0
	for ai := range acts {
		if q := refQ(&acts[ai], gamma, v); q > best {
			best, bestA = q, ai
		}
	}
	return best, bestA
}

// refValueIteration is synchronous (Jacobi, double-buffered) value iteration.
func refValueIteration(m refMDP, o SolveOptions) Result {
	o = o.withDefaults()
	v := make([]float64, len(m))
	copy(v, o.InitialValues) // warm start, or zeros
	next := make([]float64, len(v))
	pol := make(Policy, len(v))
	for it := 1; ; it++ {
		residual := 0.0
		for s, acts := range m {
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
func refPolicyEvaluation(m refMDP, pol Policy, o SolveOptions) []float64 {
	o = o.withDefaults()
	v := make([]float64, len(m))
	copy(v, o.InitialValues) // warm start, or zeros
	for it := 0; it < o.MaxIter; it++ {
		residual := 0.0
		for s := range m {
			q := refQ(&m[s][pol[s]], o.Gamma, v)
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
func refStationary(m refMDP, pol Policy, tol float64) []float64 {
	n := len(m)
	type edge struct {
		s int
		p float64
	}
	in := make([][]edge, n)
	self := make([]float64, n)
	for s := range m {
		for _, e := range m[s][pol[s]].edges {
			if int(e.next) == s {
				self[s] += e.p
			} else {
				in[e.next] = append(in[e.next], edge{s, e.p})
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
