package mdp

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"time"
)

// Compiled is an MDP in CSR form, the one form there is. Actions of state s
// occupy [actOff[s], actOff[s+1]) of the per-action arrays; transitions of
// (global) action a occupy [trOff[a], trOff[a+1]) of the per-transition
// arrays, so a Bellman backup streams through contiguous memory. Every state
// needs an action and every action's probabilities sum to 1 (Validate).
//
// The solve kernels perform exactly the floating-point operations a naive
// walk of the rows performs, in the same order, so their values and policies
// are byte-identical to the test-only reference in reference_test.go — the
// property the equivalence tests pin.
type Compiled struct {
	n      int
	actOff []int32   // len n+1: action index range per state
	reward []float64 // per action: expected immediate reward
	trOff  []int32   // len numActions+1: transition index range per action
	next   []int32   // per transition: successor state
	prob   []float64 // per transition: probability
}

// Writer appends rows in the compiled layout, state by state; Cut takes them
// as a chunk. The zero value is ready to use.
type Writer struct {
	c Compiled // actOff and trOff without their closing entries
}

// State opens the next state; the actions written after it are its own.
func (w *Writer) State() { w.c.actOff = append(w.c.actOff, int32(len(w.c.reward))) }

// Action opens an action of the current state with its expected reward.
func (w *Writer) Action(reward float64) {
	w.c.reward = append(w.c.reward, reward)
	w.c.trOff = append(w.c.trOff, int32(len(w.c.next)))
}

// Edge appends successor next, with probability p, to the current action.
func (w *Writer) Edge(next int32, p float64) {
	w.c.next = append(w.c.next, next)
	w.c.prob = append(w.c.prob, p)
}

// Cut returns the states written since the last Cut as a chunk of exact-size
// arrays and empties w, which keeps its capacity. A chunk of every state is
// the MDP itself; Stitch joins several.
func (w *Writer) Cut() *Compiled {
	c := &w.c
	ch := &Compiled{
		n:      len(c.actOff),
		actOff: slices.Concat(c.actOff, []int32{int32(len(c.reward))}),
		reward: slices.Clone(c.reward),
		trOff:  slices.Concat(c.trOff, []int32{int32(len(c.next))}),
		next:   slices.Clone(c.next),
		prob:   slices.Clone(c.prob),
	}
	c.actOff, c.reward, c.trOff = c.actOff[:0], c.reward[:0], c.trOff[:0]
	c.next, c.prob = c.next[:0], c.prob[:0]
	return ch
}

// Stitch joins chunks, in order, into one MDP: chunk i's states follow
// chunk i−1's, and each chunk's offsets are rebased onto the joined arrays.
// It fails when the actions or the transitions reach MaxInt32, which int32
// offsets cannot index.
func Stitch(chunks []*Compiled) (*Compiled, error) {
	n, acts, trs := 0, 0, 0
	for _, ch := range chunks {
		n, acts, trs = n+ch.n, acts+len(ch.reward), trs+len(ch.next)
	}
	if acts >= math.MaxInt32 || trs >= math.MaxInt32 {
		return nil, fmt.Errorf("mdp: MDP too large (%d actions, %d transitions)", acts, trs)
	}
	c := &Compiled{
		n:      n,
		actOff: make([]int32, 0, n+1),
		reward: make([]float64, 0, acts),
		trOff:  make([]int32, 0, acts+1),
		next:   make([]int32, 0, trs),
		prob:   make([]float64, 0, trs),
	}
	for _, ch := range chunks {
		a0, t0 := int32(len(c.reward)), int32(len(c.next))
		for _, o := range ch.actOff[:ch.n] {
			c.actOff = append(c.actOff, a0+o)
		}
		for _, o := range ch.trOff[:len(ch.reward)] {
			c.trOff = append(c.trOff, t0+o)
		}
		c.reward = append(c.reward, ch.reward...)
		c.next = append(c.next, ch.next...)
		c.prob = append(c.prob, ch.prob...)
	}
	c.actOff = append(c.actOff, int32(len(c.reward)))
	c.trOff = append(c.trOff, int32(len(c.next)))
	return c, nil
}

// Validate checks structural soundness: at least one state, non-empty
// action sets, successor indices in range, probabilities in [0,1] summing
// to 1 within tol.
func (c *Compiled) Validate(tol float64) error {
	if c.n == 0 {
		return errors.New("mdp: no states")
	}
	for s := 0; s < c.n; s++ {
		a0, a1 := c.actOff[s], c.actOff[s+1]
		if a0 == a1 {
			return fmt.Errorf("mdp: state %d has no actions", s)
		}
		for a := a0; a < a1; a++ {
			ai, sum := a-a0, 0.0
			for k := c.trOff[a]; k < c.trOff[a+1]; k++ {
				next, p := c.next[k], c.prob[k]
				if next < 0 || int(next) >= c.n {
					return fmt.Errorf("mdp: state %d action %d: successor %d out of range", s, ai, next)
				}
				if p < -tol || p > 1+tol || math.IsNaN(p) {
					return fmt.Errorf("mdp: state %d action %d: probability %v invalid", s, ai, p)
				}
				sum += p
			}
			if math.Abs(sum-1) > tol {
				return fmt.Errorf("mdp: state %d action %d: probabilities sum to %v", s, ai, sum)
			}
		}
	}
	return nil
}

// NumStates returns |S|.
func (c *Compiled) NumStates() int { return c.n }

// NumTransitions returns the stored transition count, a measure of solve
// cost per sweep.
func (c *Compiled) NumTransitions() int { return len(c.next) }

// NumActions returns how many actions state s has.
func (c *Compiled) NumActions(s int) int { return int(c.actOff[s+1] - c.actOff[s]) }

// Action returns action a of state s: its reward, its successors and their
// probabilities. The slices alias the MDP; callers must not modify them.
func (c *Compiled) Action(s, a int) (reward float64, next []int32, prob []float64) {
	i := c.actOff[s] + int32(a)
	lo, hi := c.trOff[i], c.trOff[i+1]
	return c.reward[i], c.next[lo:hi:hi], c.prob[lo:hi:hi]
}

// backup accumulates q + Σ gp[k]*v[next[k]] in order: one action's Bellman
// backup (q its reward, gp its scaled probabilities), or a Gauss–Seidel
// step's in-edge sum (q 0, gp the in-edge probabilities). The 4-way unroll
// keeps a single accumulator — the adds stay in the same order with the same
// rounding as the rolled loop, so the result is bit-identical; the unroll
// only amortizes loop control and lets the loads of the next group issue
// while the accumulator chain drains.
func backup(q float64, gps []float64, nxs []int32, v []float64) float64 {
	nxs = nxs[:len(gps)] // bounds-check elimination for nxs[j]
	j := 0
	for ; j+4 <= len(gps); j += 4 {
		q += gps[j] * v[nxs[j]]
		q += gps[j+1] * v[nxs[j+1]]
		q += gps[j+2] * v[nxs[j+2]]
		q += gps[j+3] * v[nxs[j+3]]
	}
	for ; j < len(gps); j++ {
		q += gps[j] * v[nxs[j]]
	}
	return q
}

// scaledProbs returns gamma*prob per transition, precomputed once per
// solve. The kernels accumulate gamma * P * v[next], which associates as
// (gamma * P) * v[next]; hoisting the first multiply out of the sweep
// keeps every rounding step identical while halving the FLOPs of the
// inner loop across the solve's hundreds of sweeps.
func (c *Compiled) scaledProbs(gamma float64) []float64 {
	gp := make([]float64, len(c.prob))
	for i, p := range c.prob {
		gp[i] = gamma * p
	}
	return gp
}

// ValueIteration solves the compiled MDP by repeated synchronous Bellman
// optimality backups (Jacobi, double-buffered) until the residual drops
// below Tol, returning an optimal policy. This is the paper's solution
// method (§4.1). Every state's backup reads only the previous iterate, so
// the result does not depend on anything but the MDP and the options. With
// SolveOptions.InitialValues it warm-starts from a previous solve's value
// vector and typically converges in far fewer sweeps.
func (c *Compiled) ValueIteration(opts SolveOptions) (Result, error) {
	opts, v, err := opts.start(c.n)
	if err != nil {
		return Result{}, err
	}
	n := c.n
	next := make([]float64, n)
	pol := make(Policy, n)
	gp := c.scaledProbs(opts.Gamma)

	it := 0
	for ; it < opts.MaxIter; it++ {
		if !opts.Deadline.IsZero() && time.Now().After(opts.Deadline) {
			return Result{Values: v, Policy: pol, Iterations: it}, ErrDeadline
		}
		residual := 0.0
		for s := 0; s < n; s++ {
			best, bestA := c.greedy(s, gp, v)
			if d := math.Abs(best - v[s]); d > residual {
				residual = d
			}
			next[s] = best
			pol[s] = bestA
		}
		v, next = next, v
		if residual < opts.Tol {
			it++
			break
		}
	}
	return Result{Values: v, Policy: pol, Iterations: it}, nil
}

// StationaryDistribution computes the stationary distribution π = πP of the
// Markov chain induced by the policy; RAMSIS weights the §5.1 expectations
// by it. The kernel is symmetric Gauss–Seidel over the chain transposed once
// per call: each sweep updates x_t = Σ_{s≠t} x_s·P_st / (1 − P_tt) in place,
// forward over t = 0…n−1 and then backward, so neither direction of the
// state index is favoured. An absorbing state (P_tt = 1) keeps its value.
// After each sweep x is renormalised to sum 1, absorbing the mass the
// pruned rows drift by, and the iteration stops when the L1 change over the
// sweep falls below tol (default 1e-12). maxIter bounds the sweeps (default
// 200,000); running out of them is an error, not a silently unconverged π.
func (c *Compiled) StationaryDistribution(pol Policy, tol float64, maxIter int) ([]float64, error) {
	n := c.n
	if len(pol) != n {
		return nil, fmt.Errorf("mdp: policy length %d != states %d", len(pol), n)
	}
	if tol == 0 {
		tol = 1e-12
	}
	if maxIter == 0 {
		maxIter = 200000
	}
	in := c.transpose(pol)
	x := make([]float64, n)
	for i := range x {
		x[i] = 1 / float64(n)
	}
	prev := make([]float64, n)
	diff := 0.0
	for it := 0; it < maxIter; it++ {
		copy(prev, x)
		for t := 0; t < n; t++ {
			in.update(x, t)
		}
		for t := n - 1; t >= 0; t-- {
			in.update(x, t)
		}
		sum := 0.0
		for _, p := range x {
			sum += p
		}
		diff = 0
		for i := range x {
			x[i] /= sum
			diff += math.Abs(x[i] - prev[i])
		}
		if diff < tol {
			return x, nil
		}
	}
	return nil, fmt.Errorf("mdp: stationary distribution not converged after %d sweeps (L1 change %g, tol %g)", maxIter, diff, tol)
}

// inEdges is a policy chain transposed: the off-diagonal in-edges of target
// t occupy [off[t], off[t+1]) of src and prob, in increasing source order,
// and stay[t] is 1 − P_tt.
type inEdges struct {
	off  []int32
	src  []int32
	prob []float64
	stay []float64
}

// transpose walks each state's chosen action once, twice over: first to
// count every target's in-edges and sum its self-loop mass, then to place
// the edges.
func (c *Compiled) transpose(pol Policy) inEdges {
	n := c.n
	in := inEdges{off: make([]int32, n+1), stay: make([]float64, n)}
	for s := 0; s < n; s++ {
		a := c.actOff[s] + int32(pol[s])
		for k := c.trOff[a]; k < c.trOff[a+1]; k++ {
			if t := c.next[k]; int(t) == s {
				in.stay[s] += c.prob[k] // P_ss for now
			} else {
				in.off[t+1]++
			}
		}
	}
	for t := 0; t < n; t++ {
		in.off[t+1] += in.off[t]
		in.stay[t] = 1 - in.stay[t]
	}
	in.src = make([]int32, in.off[n])
	in.prob = make([]float64, in.off[n])
	fill := append([]int32(nil), in.off[:n]...)
	for s := 0; s < n; s++ {
		a := c.actOff[s] + int32(pol[s])
		for k := c.trOff[a]; k < c.trOff[a+1]; k++ {
			if t := c.next[k]; int(t) != s {
				in.src[fill[t]] = int32(s)
				in.prob[fill[t]] = c.prob[k]
				fill[t]++
			}
		}
	}
	return in
}

// update is one Gauss–Seidel step at target t, reading x as it stands.
func (in *inEdges) update(x []float64, t int) {
	if in.stay[t] == 0 {
		return // absorbing
	}
	lo, hi := in.off[t], in.off[t+1]
	x[t] = backup(0, in.prob[lo:hi], in.src[lo:hi], x) / in.stay[t]
}
