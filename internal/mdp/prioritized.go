package mdp

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"time"
)

// This file implements the fast-resolve kernel layered on the compiled CSR
// form: asynchronous value iteration (Gauss-Seidel in-place updates, with an
// aggregation step while most states move and a pass restricted to the
// states still moving once few do) for the online/adaptive route. It is not
// byte-pinned against the reference — that contract covers the Jacobi and
// stationary kernels — but it converges to the same fixed point within Tol
// and extracts the policy from a final full greedy sweep, so the argmaxes
// agree wherever the optimal action is separated by more than the
// tolerance.

// Method selects the Bellman sweep strategy for ValueIteration-family
// solves.
type Method int

const (
	// MethodJacobi is the synchronous double-buffered sweep (the default):
	// every state backs up from the previous iterate. Its values are pinned
	// bit for bit by the equivalence tests.
	MethodJacobi Method = iota
	// MethodPrioritized is asynchronous value iteration: Gauss-Seidel
	// in-place sweeps, accelerated by aggregation corrections while most
	// states still move and finished by passes over only the states whose
	// last change exceeded Tol once few do. The result matches the Jacobi
	// fixed point within Tol but is not byte-identical to it.
	MethodPrioritized
)

func (m Method) String() string {
	switch m {
	case MethodJacobi:
		return "jacobi"
	case MethodPrioritized:
		return "prioritized"
	}
	return fmt.Sprintf("Method(%d)", int(m))
}

// Solve runs value iteration with the configured Method.
func (c *Compiled) Solve(opts SolveOptions) (Result, error) {
	if opts.Method == MethodPrioritized {
		return c.prioritized(opts)
	}
	return c.ValueIteration(opts)
}

// prioritized alternates full Gauss-Seidel verification sweeps with
// aggregation corrections while most states still move, and with
// Gauss-Seidel passes restricted to the states still moving once few do.
// Iterations reports sweep-equivalents: full sweeps plus restricted
// backups divided by the state count, so warm re-solves show the backup
// saving directly. With o.Ordered the corrections group index bands until
// one fails to shrink the residual, and residual quantiles after that.
func (c *Compiled) prioritized(o SolveOptions) (Result, error) {
	o = o.withDefaults()
	if o.Gamma <= 0 || o.Gamma >= 1 {
		return Result{}, fmt.Errorf("mdp: gamma %v outside (0,1)", o.Gamma)
	}
	n := c.n
	v := make([]float64, n)
	if err := o.initialValues(v); err != nil {
		return Result{}, err
	}
	gp := c.scaledProbs(o.Gamma)
	pol := make(Policy, n)

	backups := 0
	sweeps := 0
	d := make([]float64, n) // signed value change of the last sweep, per state
	var moving []int32      // endgame: states whose last change exceeded Tol
	sc := newAggScratch(n)
	bands := o.Ordered
	lastCorrected := math.Inf(1) // residual of the sweep before the last correction

	for {
		if !o.Deadline.IsZero() && time.Now().After(o.Deadline) {
			return Result{Values: v, Policy: pol, Iterations: sweeps + backups/n}, ErrDeadline
		}
		// One full Gauss-Seidel pass: every state is backed up in place
		// (extracting the greedy action), recording its signed change. A
		// pass over an already-converged vector — a warm start from the
		// exact fixed point — exits after this single sweep (the
		// zero-residual early exit).
		residual := 0.0
		active := 0
		for s := 0; s < n; s++ {
			q, bestA := c.greedy(s, gp, v)
			d[s] = q - v[s]
			dd := math.Abs(d[s])
			if dd > residual {
				residual = dd
			}
			if dd > o.Tol {
				active++
			}
			v[s] = q
			pol[s] = bestA
		}
		sweeps++
		if residual < o.Tol {
			break
		}
		if sweeps+backups/n >= o.MaxIter {
			break
		}
		if active*16 >= n {
			// Global phase: most of the space still moves each sweep, so
			// the error lives in the chain's slow modes (near-unit
			// eigenvectors of the policy chain), which plain sweeps damp
			// only at rate ≈ γ per pass. An adaptive-aggregation step
			// (Bertsekas–Castañón) cancels them wholesale: group states by
			// residual, solve the small aggregated system exactly, and add
			// the piecewise-constant correction — approximate policy
			// evaluation in one shot. The correction cannot change the
			// fixed point — convergence is still declared only by a full
			// sweep with residual below Tol.
			//
			// The linear error model needs the greedy policy's Bellman
			// residual against the *current* vector (the Gauss-Seidel pass
			// change mixes residuals of intermediate iterates and badly
			// overshoots), so run one cheap fixed-policy pass first.
			for s := 0; s < n; s++ {
				a := c.actOff[s] + int32(pol[s])
				q := backup(c.reward[a], gp[c.trOff[a]:c.trOff[a+1]], c.next[c.trOff[a]:c.trOff[a+1]], v)
				d[s] = q - v[s]
			}
			// Bands can stall on a chain that is not one load axis: a
			// sweep whose residual exceeds the last corrected one's hands
			// the rest of the solve to residual quantiles.
			if bands && residual > lastCorrected {
				bands = false
			}
			lastCorrected = residual
			aggCorrect(c, v, pol, d, o.Gamma, sc, bands)
			continue
		}
		// Endgame: the residual is confined to the few states that still
		// moved, so full sweeps waste n−active backups per pass. Back up
		// only those states, in index order and in place, until none of
		// them moves by more than Tol or one sweep-equivalent (n backups)
		// is spent; the next full sweep carries their change to every
		// other state and alone declares convergence. The set is empty
		// when the residual equals Tol exactly, and then no pass runs.
		moving = moving[:0]
		for s := 0; s < n; s++ {
			if math.Abs(d[s]) > o.Tol {
				moving = append(moving, int32(s))
			}
		}
		for spent := 0; len(moving) > 0 && spent+len(moving) <= n; spent += len(moving) {
			moved := false
			for _, s := range moving {
				q, bestA := c.greedy(int(s), gp, v)
				if math.Abs(q-v[s]) > o.Tol {
					moved = true
				}
				v[s] = q
				pol[s] = bestA
			}
			backups += len(moving)
			if !moved {
				break
			}
		}
	}
	return Result{Values: v, Policy: pol, Iterations: sweeps + backups/n}, nil
}

// greedy returns the best backup value and action index (within state s)
// against the value vector v, first action winning ties: the one Bellman
// argmax, shared by the Jacobi sweep and every prioritized backup.
func (c *Compiled) greedy(s int, gp, v []float64) (float64, int) {
	best := math.Inf(-1)
	bestA := 0
	a0, a1 := c.actOff[s], c.actOff[s+1]
	for a := a0; a < a1; a++ {
		q := backup(c.reward[a], gp[c.trOff[a]:c.trOff[a+1]], c.next[c.trOff[a]:c.trOff[a+1]], v)
		if q > best {
			best = q
			bestA = int(a - a0)
		}
	}
	return best, bestA
}

// aggScratch holds the buffers of the adaptive-aggregation correction,
// allocated once per solve and reused across steps.
type aggScratch struct {
	ord  []int32   // states in group order: by index or by last-sweep change
	gid  []int32   // group id per state
	phat []float64 // m×m aggregated policy-chain transition matrix
	rhat []float64 // m: mean residual per group (becomes the correction)
	cnt  []float64 // m: states per group
	m    int
}

// Aggregate system size bounds. The group count scales as n/aggRatio,
// clamped to [aggMinGroups, aggMaxGroups]: large enough that states sharing
// a group have near-identical residuals (so the piecewise-constant error
// model fits — too few groups over a large space leaves slow modes the
// correction cannot represent and the solve degenerates to plain sweeps),
// small enough that the dense m³ elimination stays far below one Bellman
// sweep.
const (
	aggMinGroups = 64
	aggMaxGroups = 512
	aggRatio     = 64
)

func newAggScratch(n int) *aggScratch {
	m := n / aggRatio
	if m < aggMinGroups {
		m = aggMinGroups
	}
	if m > aggMaxGroups {
		m = aggMaxGroups
	}
	if m > n {
		m = n
	}
	return &aggScratch{
		ord:  make([]int32, n),
		gid:  make([]int32, n),
		phat: make([]float64, m*m),
		rhat: make([]float64, m),
		cnt:  make([]float64, m),
		m:    m,
	}
}

// aggCorrect applies one adaptive-aggregation step (Bertsekas–Castañón):
// states are grouped into m groups — contiguous index bands when bands is
// set, else quantile buckets of their last sweep's signed value change —
// the greedy policy's chain is aggregated into an m×m matrix P̂, and the
// exact solve of (I − γP̂)·y = r̂ yields the geometric tail of the residual
// under a piecewise-constant error model. Adding y[group(s)] to every state
// cancels the chain's slow error modes — the near-unit eigenvectors that
// are nearly constant within a group — which plain sweeps damp only at
// rate γ per pass. On a chain whose index is its load axis those modes are
// smooth in the index, so bands represent them where residual quantiles
// mix distant loads. The correction is a pure accelerator: it moves the
// iterate, never the fixed point, and the solver still terminates only on
// a clean full sweep.
func aggCorrect(c *Compiled, v []float64, pol Policy, d []float64, gamma float64, sc *aggScratch, bands bool) {
	n, m := c.n, sc.m
	for i := range sc.ord {
		sc.ord[i] = int32(i)
	}
	if !bands {
		slices.SortFunc(sc.ord, func(a, b int32) int { return cmp.Compare(d[a], d[b]) })
	}
	for i, s := range sc.ord {
		sc.gid[s] = int32(i * m / n)
	}
	for i := range sc.phat {
		sc.phat[i] = 0
	}
	for g := 0; g < m; g++ {
		sc.rhat[g], sc.cnt[g] = 0, 0
	}
	for s := 0; s < n; s++ {
		g := int(sc.gid[s])
		a := c.actOff[s] + int32(pol[s])
		row := sc.phat[g*m : g*m+m]
		for t := c.trOff[a]; t < c.trOff[a+1]; t++ {
			row[sc.gid[c.next[t]]] += c.prob[t]
		}
		sc.rhat[g] += d[s]
		sc.cnt[g]++
	}
	// Form A = I − γ·P̂ and b = r̂ (group means). Rows of P̂ sum to 1, so A
	// is strictly diagonally dominant with margin 1−γ and Gaussian
	// elimination needs no pivoting.
	for g := 0; g < m; g++ {
		inv := 1 / sc.cnt[g]
		row := sc.phat[g*m : g*m+m]
		for j := range row {
			row[j] *= -gamma * inv
		}
		row[g]++
		sc.rhat[g] *= inv
	}
	A, b := sc.phat, sc.rhat
	for p := 0; p < m; p++ {
		piv := A[p*m+p]
		for r := p + 1; r < m; r++ {
			f := A[r*m+p] / piv
			if f == 0 {
				continue
			}
			for j := p + 1; j < m; j++ {
				A[r*m+j] -= f * A[p*m+j]
			}
			b[r] -= f * b[p]
		}
	}
	for p := m - 1; p >= 0; p-- {
		sum := b[p]
		for j := p + 1; j < m; j++ {
			sum -= A[p*m+j] * b[j]
		}
		b[p] = sum / A[p*m+p]
	}
	for s := 0; s < n; s++ {
		v[s] += b[sc.gid[s]]
	}
}
