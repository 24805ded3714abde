package mdp

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"time"
)

// This file implements the fast-resolve kernel layered on the compiled CSR
// form: asynchronous prioritized value iteration (Gauss-Seidel in-place
// updates swept in Bellman-residual order) for the online/adaptive route.
// It is not byte-pinned against the reference — that contract covers the
// Jacobi and stationary kernels — but it converges to the same fixed point
// within Tol and extracts the policy from a final full greedy sweep, so the
// argmaxes agree wherever the optimal action is separated by more than the
// tolerance.

// Method selects the Bellman sweep strategy for ValueIteration-family
// solves.
type Method int

const (
	// MethodJacobi is the synchronous double-buffered sweep (the default):
	// every state backs up from the previous iterate. Its values are pinned
	// bit for bit by the equivalence tests.
	MethodJacobi Method = iota
	// MethodPrioritized is asynchronous prioritized value iteration:
	// Gauss-Seidel in-place updates, swept in Bellman-residual order via a
	// bucketed priority queue over the CSR arrays. Warm-started re-solves
	// converge in far fewer backups than full Jacobi sweeps because only
	// the states whose residuals still exceed Tol are touched. The result
	// matches the Jacobi fixed point within Tol but is not byte-identical
	// to it.
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
// residual-ordered drains of a bucketed priority queue once few do.
// Iterations reports sweep-equivalents: full sweeps plus prioritized
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

	preds := c.predecessors()
	pq := newBucketQueue(n, o.Tol)
	backups := 0
	sweeps := 0
	d := make([]float64, n) // signed value change of the last sweep, per state
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
		// Endgame: the residual is confined to a small active set, so
		// full sweeps waste n−active backups per pass. Seed the bucketed
		// priority queue with the predecessors of every state that still
		// moved, most-moved first.
		for s := 0; s < n; s++ {
			if dd := math.Abs(d[s]); dd > o.Tol {
				pq.pushAll(preds.at(s), dd)
			}
		}
		// Drain in residual order: each pop re-backs-up one state in
		// place; a change above Tol re-prioritizes its predecessors. The
		// round is budgeted at n backups — one sweep-equivalent — so a
		// slow-mixing local cluster can never cost more than the full
		// sweep it replaces; the next sweep then either confirms global
		// convergence or re-seeds the queue with whatever was left.
		for budget := n; budget > 0; budget-- {
			s, ok := pq.pop()
			if !ok {
				break
			}
			q, bestA := c.greedy(s, gp, v)
			dd := math.Abs(q - v[s])
			v[s] = q
			pol[s] = bestA
			backups++
			if dd > o.Tol {
				pq.pushAll(preds.at(s), dd)
			}
		}
	}
	return Result{Values: v, Policy: pol, Iterations: sweeps + backups/n}, nil
}

// greedy returns the best backup value and action index (within state s)
// against the in-place value vector v, first action winning ties.
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

// predCSR is the reverse adjacency of the compiled MDP: predecessors of
// state s — every state with at least one action transitioning into s —
// occupy [off[s], off[s+1]) of list. Duplicate (pred, succ) pairs arising
// from multiple actions or transitions are collapsed, so a residual bump
// enqueues each predecessor once.
type predCSR struct {
	off  []int32
	list []int32
}

func (p *predCSR) at(s int) []int32 { return p.list[p.off[s]:p.off[s+1]] }

// predecessors builds (and memoizes) the reverse CSR. The build is
// O(transitions), about the cost of one Bellman sweep, paid once per
// Compiled.
func (c *Compiled) predecessors() *predCSR {
	c.predOnce.Do(func() {
		n := c.n
		counts := make([]int32, n+1)
		// mark[succ] records the last predecessor that noted succ; states
		// iterate in increasing order, so the check dedups (pred, succ)
		// pairs exactly across all of a state's actions and transitions.
		mark := make([]int32, n)
		for i := range mark {
			mark[i] = -1
		}
		countPass := func(record func(pred, succ int32)) {
			for s := 0; s < n; s++ {
				a0, a1 := c.actOff[s], c.actOff[s+1]
				t0, t1 := c.trOff[a0], c.trOff[a1]
				for t := t0; t < t1; t++ {
					succ := c.next[t]
					if mark[succ] == int32(s) {
						continue
					}
					mark[succ] = int32(s)
					record(int32(s), succ)
				}
			}
		}
		countPass(func(_, succ int32) { counts[succ+1]++ })
		for i := 0; i < n; i++ {
			counts[i+1] += counts[i]
		}
		list := make([]int32, counts[n])
		fill := make([]int32, n)
		copy(fill, counts[:n])
		for i := range mark {
			mark[i] = -1
		}
		countPass(func(pred, succ int32) {
			list[fill[succ]] = pred
			fill[succ]++
		})
		c.pred = &predCSR{off: counts, list: list}
	})
	return c.pred
}

// bucketQueue is an approximate max-priority queue over states keyed by
// Bellman residual, bucketed by binary exponent of residual/tol: bucket b
// holds residuals in [tol·2^b, tol·2^(b+1)). Push is O(1); pop scans down
// from the highest non-empty bucket. A state is queued at most once at its
// highest pending priority — re-pushing at a lower priority is a no-op, and
// a stale entry left in a lower bucket after an upgrade is skipped on pop.
type bucketQueue struct {
	tol     float64
	buckets [][]int32
	at      []int16 // current bucket per state, -1 when not queued
	top     int     // highest possibly non-empty bucket
}

const numBuckets = 64

func newBucketQueue(n int, tol float64) *bucketQueue {
	q := &bucketQueue{
		tol:     tol,
		buckets: make([][]int32, numBuckets),
		at:      make([]int16, n),
		top:     -1,
	}
	for i := range q.at {
		q.at[i] = -1
	}
	return q
}

// bucketOf maps a residual to its bucket index, clamped to the top bucket
// for huge residuals; residuals at or below tol do not queue.
func (q *bucketQueue) bucketOf(pri float64) int {
	if !(pri > q.tol) {
		return -1
	}
	b := math.Ilogb(pri / q.tol)
	if b < 0 {
		b = 0
	}
	if b >= numBuckets {
		b = numBuckets - 1
	}
	return b
}

func (q *bucketQueue) push(s int32, pri float64) {
	b := q.bucketOf(pri)
	if b < 0 || int(q.at[s]) >= b {
		return
	}
	q.at[s] = int16(b)
	q.buckets[b] = append(q.buckets[b], s)
	if b > q.top {
		q.top = b
	}
}

func (q *bucketQueue) pushAll(states []int32, pri float64) {
	for _, s := range states {
		q.push(s, pri)
	}
}

func (q *bucketQueue) pop() (int, bool) {
	for q.top >= 0 {
		b := q.buckets[q.top]
		if len(b) == 0 {
			q.top--
			continue
		}
		s := b[len(b)-1]
		q.buckets[q.top] = b[:len(b)-1]
		if int(q.at[s]) != q.top {
			continue // stale entry: the state was upgraded and popped higher
		}
		q.at[s] = -1
		return int(s), true
	}
	return 0, false
}
