package core

import (
	"math"
	"slices"
	"sync"

	"ramsis/internal/dist"
	"ramsis/internal/mdp"
	"ramsis/internal/profile"
)

// This file derives the worker-MDP transition probabilities of §4.4.
//
// The paper expresses P_a(s, s') as a quadruple sum of PF terms over four
// non-overlapping intervals (A: queue build-up before the decision; B/C/D:
// partitioning the service time around the first worker arrival). Computed
// literally that sum is O(n'·K³) per matrix entry. We compute the same
// distribution through an equivalent renewal-process formulation:
//
//  1. Interval A (the denominator of Eq. 2) is exactly a posterior over the
//     round-robin *phase* r = k_A mod K: given state (n, T_j), the central
//     queue saw k_A ∈ [(n-1)K, nK-1] arrivals during T_A = SLO − T_j, and
//     each residue r appears exactly once, so P(r) ∝ PF((n-1)K + r, T_A).
//  2. Given phase r, the worker's next query arrives after K − r more
//     central arrivals; the density of that epoch is the central process's
//     (K−r)-th arrival density (Erlang(K−r, λ) for Poisson arrivals).
//     Mixing over the phase posterior yields a first-arrival density f̃(t).
//  3. Intervals B, C, D (the numerator of Eq. 2) collapse to the statement:
//     the first worker arrival lands at t in slack bucket
//     T_{j'} = SLO − (l − t), and the remaining service window (t, l]
//     contributes n' − 1 further worker arrivals, i.e. its central-arrival
//     count lies in [(n'−1)K, n'K − 1]. By independent increments these
//     factor, so
//
//     P(n', T_{j'}) = ∫_bucket f̃(t) · P[N(l−t) ∈ [(n'−1)K, n'K−1]] dt,
//
//     evaluated by midpoint quadrature on a fine fixed grid.
//
// Case 1 (empty queue, Eq. 1) and case 3 (overflow complement, Eq. 3) are
// implemented exactly as written. Queue-aware balancers reuse the same
// machinery with a per-state conditional Poisson process and an effective
// K of 1: Appendix I's rate for shortest-queue-first, and the Mitzenmacher
// doubly-exponential tail for power-of-two-choices.

// builder is the scalar worker MDP's stateSpace: it enumerates each state's
// actions once, precomputes the probability tables they read, and builds one
// state's row at a time from them.
type builder struct {
	sp    *space
	cells int
	delta float64
	tmax  float64
	solveSpec

	// Read-only after prepare(): each state's action list, and probability
	// tables for the (rate, latency) pairs some action takes — keyed by
	// process rate (round-robin uses one process; queue-aware balancers use
	// one per queue-length regime) and action latency.
	acts    [][]actionSpec           // state -> actions, in action order
	fk      map[float64][]window     // rate -> [k-1] k-th-arrival pdf's kept cells
	h       map[tableKey][]float64   // (rate, latency) -> [cell*N_w + j-1]
	cdf     map[tableKey][]float64   // (rate, latency) -> CDF table over counts
	sqf     map[float64]dist.Process // SQF rate -> process
	logFact []float64                // log(i!), i < N_w·K: the phase posterior's counts
}

type tableKey struct {
	rate float64
	lat  float64
}

// tailEps is the mass below which f̃'s terms are dropped: a k-th-arrival
// density's head and tail cells each holding less than tailEps of Σ f·δ, and
// phase-posterior weights below tailEps. Per state that moves at most
// Σ_r P(r)·2ε + Σ_{P(r)<ε} P(r) ≤ (K+2)ε of f̃·δ — 8.2e-17 at K = 80, six
// orders of magnitude under ProbFloor — and it keeps every product f̃ adds
// out of the subnormal range, where each one costs many times a normal one.
const tailEps = 1e-18

// window is a density column's kept cells: f[i] is the density at fine cell
// off+i, and every cell outside [off, off+len(f)) is dropped.
type window struct {
	off int
	f   []float64
}

func newBuilder(sp *space) *builder {
	cfg := sp.cfg
	b := &builder{
		sp:      sp,
		cells:   cfg.FineCells,
		fk:      make(map[float64][]window),
		h:       make(map[tableKey][]float64),
		cdf:     make(map[tableKey][]float64),
		sqf:     make(map[float64]dist.Process),
		logFact: logFactorials(cfg.MaxQueue * cfg.Workers),
	}
	// The longest action latency bounds the quadrature horizon: valid
	// actions are within the SLO, and the forced action runs the fastest
	// model at up to N_w queries.
	b.tmax = cfg.SLO
	fast := sp.models.Profiles[sp.fastestModel()]
	if l := fast.BatchLatency(min(cfg.MaxQueue, fast.MaxBatch())); l > b.tmax {
		b.tmax = l
	}
	b.delta = b.tmax / float64(b.cells)
	b.arm(cfg.Gamma, cfg.Jacobi, cfg.Timeout)
	return b
}

// procFor returns the worker-level arrival process and effective fan-out K
// for transitions leaving queue length n. Round-robin sees the central
// process thinned by K; queue-aware balancers (shortest-queue-first,
// power-of-two-choices) see a conditional Poisson process whose rate
// depends on the queue state, with no further thinning.
func (b *builder) procFor(n int) (dist.Process, int) {
	cfg := b.sp.cfg
	if cfg.Balancing == RoundRobin {
		return cfg.Arrival, cfg.Workers
	}
	rate := conditionalRate(cfg, b.sp.models, n)
	p, ok := b.sqf[rate]
	if !ok {
		p = dist.NewPoisson(rate)
		b.sqf[rate] = p
	}
	return p, 1
}

// prepare enumerates each state's actions and fills the fk, h, and cdf
// tables for the (rate, latency) pairs those actions take, parallelized
// across pairs. A pair some partial-drain action reads (Batch < n: variable
// batching, or a queue beyond a model's profiled batch range under either
// strategy) gets the wide CDF table.
func (b *builder) prepare() {
	sp := b.sp
	type job struct {
		key  tableKey
		proc dist.Process
		k    int
		wide bool
	}
	var jobs []*job
	byKey := map[tableKey]*job{}
	b.acts = make([][]actionSpec, sp.numStates())
	for s := range b.acts {
		b.acts[s] = sp.actionsForState(s)
		if s == sp.emptyState() {
			continue
		}
		n, _ := b.stateParams(s)
		proc, k := b.procFor(n)
		rate := proc.Rate()
		if _, ok := b.fk[rate]; !ok {
			b.fk[rate] = trimColumns(dist.KthArrivalTable(proc, k, b.cells, b.delta), b.delta)
		}
		for _, a := range b.acts[s] {
			key := tableKey{rate, a.Latency}
			j := byKey[key]
			if j == nil {
				j = &job{key: key, proc: proc, k: k}
				byKey[key] = j
				jobs = append(jobs, j)
			}
			if a.Batch < n {
				j.wide = true
			}
		}
	}
	var mu sync.Mutex
	parallelFor(len(jobs), func(i int) {
		if b.expired() {
			return
		}
		j := jobs[i]
		h := b.buildHTable(j.proc, j.k, j.key.lat)
		c := b.buildCDFTable(j.proc, j.k, j.key.lat, j.wide)
		mu.Lock()
		b.h[j.key] = h
		b.cdf[j.key] = c
		mu.Unlock()
	})
}

// trimColumns returns each column of a [cell][k-1] density table as the
// window of cells whose head mass and whose tail mass (Σ f·δ up to and from
// the cell) are each at least tailEps: a column drops less than 2·tailEps of
// its mass, and none of the underflowing cells at either end.
func trimColumns(t [][]float64, delta float64) []window {
	out := make([]window, len(t[0]))
	col := make([]float64, len(t))
	for c := range out {
		for r, row := range t {
			col[r] = row[c]
		}
		lo, head := 0, 0.0
		for ; lo < len(col); lo++ {
			if head += col[lo] * delta; head >= tailEps {
				break
			}
		}
		hi, tail := len(col), 0.0
		for ; hi > lo; hi-- {
			if tail += col[hi-1] * delta; tail >= tailEps {
				break
			}
		}
		if lo < hi {
			out[c] = window{lo, slices.Clone(col[lo:hi])}
		}
	}
	return out
}

// buildHTable tabulates, for each fine cell g with midpoint t_g < l, the
// probability that the remaining window (t_g, l] sees j−1 further worker
// arrivals: P[N(l − t_g) ∈ [(j−1)K, jK−1]] for j = 1..N_w, flattened as
// [g·N_w + (j−1)].
func (b *builder) buildHTable(proc dist.Process, k int, l float64) []float64 {
	nw := b.sp.cfg.MaxQueue
	gmax := b.cellsFor(l)
	out := make([]float64, gmax*nw)
	ladder := dist.NewCDFLadder(proc, k, nw)
	for g := 0; g < gmax; g++ {
		x := l - (float64(g)+0.5)*b.delta
		if x < 0 {
			x = 0
		}
		row := out[g*nw : (g+1)*nw]
		ladder.Fill(x, row) // row[j-1] = CDF(jK − 1, x)
		prev := 0.0         // CDF((j-1)K - 1, x), starting at CDF(-1) = 0
		for j, cur := range row {
			row[j] = cur - prev
			prev = cur
		}
	}
	return out
}

// buildCDFTable tabulates proc.CDF(i, l) over the counts the pair's actions
// read: i = 0..K−1 for the no-arrival case of a full drain, and, when some
// partial-drain action reads the pair (wide), i = 0..(N_w+2)·K−1 for the
// variable-batching count sums.
func (b *builder) buildCDFTable(proc dist.Process, k int, l float64, wide bool) []float64 {
	kmax := k
	if wide {
		kmax = (b.sp.cfg.MaxQueue + 2) * k
	}
	out := make([]float64, kmax)
	dist.NewCDFLadder(proc, 1, kmax).Fill(l, out)
	return out
}

// cellsFor returns the number of fine cells whose start lies before l.
func (b *builder) cellsFor(l float64) int {
	g := int(math.Ceil(l / b.delta))
	if g > b.cells {
		g = b.cells
	}
	return g
}

// logFactorials returns log(i!) = lgamma(i+1) for i = 0..n−1.
func logFactorials(n int) []float64 {
	lf := make([]float64, n)
	for i := range lf {
		lf[i], _ = math.Lgamma(float64(i) + 1)
	}
	return lf
}

// phasePosterior computes P(r) ∝ PF((n−1)K + r, T_A) for r = 0..K−1 — the
// interval-A term of Eq. 2 — into the scratch's pr buffer, reading log(i!)
// from logFact (at least nK entries). For Poisson arrivals it works in log
// space to survive large means; on total underflow (an effectively
// unreachable state) it falls back to a uniform phase.
func (sc *stateScratch) phasePosterior(proc dist.Process, k, n int, ta float64, logFact []float64) []float64 {
	pr := sc.pr[:k]
	if ta <= 0 {
		clear(pr)
		pr[0] = 1
		return pr
	}
	base := (n - 1) * k
	sum := 0.0
	if p, ok := proc.(dist.Poisson); ok {
		mu := p.Lambda * ta
		logmu := math.Log(mu)
		maxLog := math.Inf(-1)
		for r := 0; r < k; r++ {
			kk := float64(base + r)
			pr[r] = kk*logmu - mu - logFact[base+r] // log PF; exponentiated below
			if pr[r] > maxLog {
				maxLog = pr[r]
			}
		}
		if !math.IsInf(maxLog, -1) && !math.IsNaN(maxLog) {
			for r := 0; r < k; r++ {
				pr[r] = math.Exp(pr[r] - maxLog)
				sum += pr[r]
			}
		}
	} else {
		for r := 0; r < k; r++ {
			pr[r] = proc.PF(base+r, ta)
			sum += pr[r]
		}
	}
	if sum <= 0 {
		for r := range pr {
			pr[r] = 1 / float64(k)
		}
		return pr
	}
	for r := range pr {
		pr[r] /= sum
	}
	return pr
}

// firstArrivalDensity mixes the k-th-arrival densities over the phase
// posterior, f̃(t_g) = Σ_r P(r)·f_{K−r}(t_g), for the first gmax cells — as
// far as the state's longest full-drain action integrates. It skips every
// weight P(r) < tailEps and adds only each column's kept window (trimColumns),
// so per state it drops at most (K+2)·tailEps of f̃·δ, and no product it adds
// is subnormal. Each cell sums over r ascending; r is the outer loop so the
// cells accumulate independently.
func (b *builder) firstArrivalDensity(sc *stateScratch, rate float64, gmax int, pr []float64) []float64 {
	fk := b.fk[rate]
	ft := sc.ft[:gmax]
	clear(ft)
	for r, p := range pr {
		if p < tailEps {
			continue
		}
		w := fk[len(pr)-r-1]
		if w.off >= len(ft) {
			continue
		}
		dst := ft[w.off:min(w.off+len(w.f), len(ft))]
		for g, f := range w.f[:len(dst)] {
			dst[g] += p * f
		}
	}
	return ft
}

// stateScratch is per-goroutine reusable space: the writer its rows go to,
// the successor accumulator, and the per-state phase posterior (K entries),
// first-arrival density (one per fine cell) and remaining-earliest slack
// distribution (one per bucket). The token build uses only the writer, mass
// (one entry per state) and its Φ table.
type stateScratch struct {
	w mdp.Writer

	probs []float64
	dirty []int32

	pr, ft, bucketP []float64

	mass []float64
	phi  phiTable
}

func (b *builder) newScratch() *stateScratch {
	return &stateScratch{
		probs:   make([]float64, b.sp.numStates()),
		pr:      make([]float64, b.sp.cfg.Workers),
		ft:      make([]float64, b.cells),
		bucketP: make([]float64, len(b.sp.grid)),
	}
}

func (sc *stateScratch) add(s int32, p float64) {
	if sc.probs[s] == 0 && p != 0 {
		sc.dirty = append(sc.dirty, s)
	}
	sc.probs[s] += p
}

// emit writes the accumulated probabilities as the current action's
// successors, in state order, folding entries below the floor (and any
// residual mass) into the overflow state per Eq. 3, then normalizing.
func (sc *stateScratch) emit(overflow int32, floor float64) {
	total := 0.0
	for _, s := range sc.dirty {
		total += sc.probs[s]
	}
	if total > 1 {
		inv := 1 / total
		for _, s := range sc.dirty {
			sc.probs[s] *= inv
		}
		total = 1
	}
	if rem := 1 - total; rem > 0 {
		sc.add(overflow, rem)
	}
	// Keep the entries at the floor or above, and overflow, moving them to
	// the front of dirty and summing them in dirty order; drop the rest.
	kept, keep := 0.0, sc.dirty[:0]
	for _, s := range sc.dirty {
		if p := sc.probs[s]; p >= floor || s == overflow {
			keep = append(keep, s)
			kept += p
		} else {
			sc.probs[s] = 0
		}
	}
	// Fold pruned mass into overflow (conservative) and renormalize.
	// Overflow only ever gains positive mass, so it holds none exactly
	// when it is not among the kept entries yet.
	if kept < 1 {
		if sc.probs[overflow] == 0 {
			keep = append(keep, overflow)
		}
		sc.probs[overflow] += 1 - kept
	}
	slices.Sort(keep)
	for _, s := range keep {
		sc.w.Edge(s, sc.probs[s])
		sc.probs[s] = 0
	}
	sc.dirty = keep[:0]
}

func (b *builder) numStates() int { return b.sp.numStates() }

// row writes state s's actions: each one's §4.1 reward and its §4.4
// successor distribution.
func (b *builder) row(s int, sc *stateScratch) {
	b.rowWith(s, sc, b.firstArrivalDensity)
}

// rowWith is row with the first-arrival density computed by density.
func (b *builder) rowWith(s int, sc *stateScratch, density func(sc *stateScratch, rate float64, gmax int, pr []float64) []float64) {
	sp := b.sp
	acts := b.acts[s]
	sc.w.State()
	if s == sp.emptyState() {
		// Case 1 (Eq. 1): â moves (0, ·) to (1, SLO) surely.
		sc.w.Action(sp.reward(acts[0]))
		sc.w.Edge(int32(sp.index(1, sp.bucketOf(sp.cfg.SLO))), 1)
		return
	}
	// Phase posterior and first-arrival density depend on the state only;
	// share them across its actions. The density is read by full-drain
	// actions, up to their latency.
	n, tj := b.stateParams(s)
	proc, k := b.procFor(n)
	gmax := 0
	for _, a := range acts {
		if a.Batch >= n {
			gmax = max(gmax, b.cellsFor(a.Latency))
		}
	}
	pr := sc.phasePosterior(proc, k, n, sp.cfg.SLO-tj, b.logFact)
	ft := density(sc, proc.Rate(), gmax, pr)
	// Each action's successors: case 2 of §4.4, plus the overflow
	// complement of case 3 in emit.
	for _, a := range acts {
		sc.w.Action(sp.reward(a))
		key := tableKey{proc.Rate(), a.Latency}
		if a.Batch < n {
			b.variableTransitions(sc, n, tj, a, pr, b.cdf[key], k)
		} else {
			b.fullDrainTransitions(sc, a, pr, ft, b.cdf[key], b.h[key], k)
		}
		sc.emit(int32(sp.overflowState()), sp.cfg.ProbFloor)
	}
}

// outcome is what action a of state s serves: a batch of queries on one
// model, or nothing for the arrival action.
func (b *builder) outcome(s, a int) outcome {
	act := b.acts[s][a]
	if act.Model == arrivalAction {
		return outcome{satisfies: true}
	}
	return outcome{float64(act.Batch), b.sp.models.Profiles[act.Model].Accuracy, act.Satisfies}
}

// stateParams returns (n, T_j) for a non-empty state, with the overflow
// state behaving as (N_w, 0) per §4.2.3.
func (b *builder) stateParams(s int) (int, float64) {
	if s == b.sp.overflowState() {
		return b.sp.cfg.MaxQueue, 0
	}
	n, j := b.sp.decompose(s)
	return n, b.sp.grid[j]
}

// fullDrainTransitions handles b == n (maximal batching, and the b = n case
// of variable batching): the queue empties at the decision, so the next
// state is determined entirely by arrivals during the service time l.
func (b *builder) fullDrainTransitions(sc *stateScratch, a actionSpec, pr, ft []float64, cdfT, hT []float64, k int) {
	sp := b.sp
	nw := sp.cfg.MaxQueue
	l := a.Latency

	// No worker arrival during service: next state is the empty queue.
	p0 := 0.0
	for r := 0; r < k; r++ {
		if pr[r] == 0 {
			continue
		}
		p0 += pr[r] * cdfT[k-r-1]
	}
	sc.add(int32(sp.emptyState()), p0)

	gmax := b.cellsFor(l)
	for g := 0; g < gmax; g++ {
		f := ft[g]
		if f < 1e-300 {
			continue
		}
		start := float64(g) * b.delta
		width := b.delta
		if start+width > l {
			width = l - start
		}
		tg := (float64(g) + 0.5) * b.delta
		slack := sp.cfg.SLO - l + tg
		c := sp.bucketOf(slack)
		mass := f * width
		base := g * nw
		for j := 1; j <= nw; j++ {
			p := mass * hT[base+j-1]
			if p > 0 {
				sc.add(int32(sp.index(j, c)), p)
			}
		}
		// j > N_w falls to the overflow complement in emit().
	}
}

// variableTransitions handles b < n under variable batching: n−b queries
// remain, whose earliest is worker arrival #b within interval A (central
// arrival #bK). Its position given k_A total interval-A arrivals is a
// uniform order statistic (a Beta law evaluated via the regularized
// incomplete beta); arrivals during service stack behind it without moving
// the earliest deadline. The phase-mixture over k_A is collapsed to its
// posterior mean, which is exact for K = 1 and accurate to O(1/n) otherwise
// (the paper leaves this derivation as "similar reasoning", §4.4).
func (b *builder) variableTransitions(sc *stateScratch, n int, tj float64, a actionSpec, pr []float64, cdfT []float64, k int) {
	sp := b.sp
	nw := sp.cfg.MaxQueue
	l := a.Latency
	rem := n - a.Batch
	ta := sp.cfg.SLO - tj

	// Posterior-mean total interval-A central arrivals.
	kaBar := 0.0
	for r, p := range pr {
		kaBar += p * float64((n-1)*k+r)
	}
	target := float64(a.Batch * k) // central arrival index of remaining-earliest query

	// Slack bucket distribution of the remaining-earliest query:
	// slack' = x + T_j − l for x its interval-A position.
	grid := sp.grid
	bucketP := sc.bucketP
	if ta <= 0 || kaBar < target {
		clear(bucketP)
		// Degenerate window: the query sits at the window start.
		bucketP[sp.bucketOf(tj-l)] = 1
	} else {
		// P[arrival #target <= x] = P[Bin(kaBar, x/ta) >= target].
		binTail := dist.NewIncBeta(target, kaBar-target+1)
		cdfAt := func(x float64) float64 {
			if x <= 0 {
				return 0
			}
			if x >= ta {
				return 1
			}
			return binTail.At(x / ta)
		}
		prev := 0.0
		for c := 0; c < len(grid); c++ {
			var hi float64
			if c == len(grid)-1 {
				hi = 1
			} else {
				// slack' < grid[c+1]  ⇔  x < grid[c+1] − T_j + l.
				hi = cdfAt(grid[c+1] - tj + l)
			}
			bucketP[c] = hi - prev
			prev = hi
		}
	}

	// Count distribution of worker arrivals during service, mixed over the
	// phase: C(i) = Σ_r P(r)·P[N(l) ∈ [iK−r, (i+1)K−1−r]].
	imax := nw - rem
	for i := 0; i <= imax; i++ {
		ci := 0.0
		for r, p := range pr {
			if p == 0 {
				continue
			}
			hiIdx := (i+1)*k - 1 - r
			loIdx := i*k - r - 1
			var hi, lo float64
			if hiIdx >= 0 {
				hi = cdfT[hiIdx]
			}
			if loIdx >= 0 {
				lo = cdfT[loIdx]
			}
			ci += p * (hi - lo)
		}
		if ci <= 0 {
			continue
		}
		np := rem + i
		for c, bp := range bucketP {
			if p := ci * bp; p > 0 {
				sc.add(int32(sp.index(np, c)), p)
			}
		}
	}
	// i > imax overflows; handled by the complement in emit().
}

// conditionalRate dispatches to the queue-state-conditioned per-worker
// arrival rate of the configured queue-aware balancer.
func conditionalRate(cfg Config, models profile.Set, n int) float64 {
	if cfg.Balancing == PowerOfTwoChoices {
		return p2cRate(cfg, models, n)
	}
	return sqfRate(cfg, models, n)
}

// effectiveServiceRate derives the Appendix I service rate μ: the appendix
// picks the slowest (batch-1 latency) Pareto-front model that can meet the
// per-worker load within SLO/2; μ is its effective per-query service rate,
// so ρ = (λ/K)/μ <= 1 by construction. Since the formula needs a service
// *rate* and the appendix defines μ through the largest l_w(m, 1), we take
// μ = 1/l_w(m, 1), the standard reading of [18].
func effectiveServiceRate(cfg Config, models profile.Set) float64 {
	perWorker := cfg.Arrival.Rate() / float64(cfg.Workers)
	var chosen *profile.Profile
	for i := range models.Profiles {
		p := &models.Profiles[i]
		if p.ThroughputWithin(cfg.SLO/2) >= perWorker {
			if chosen == nil || p.BatchLatency(1) > chosen.BatchLatency(1) {
				chosen = p
			}
		}
	}
	if chosen == nil {
		// No model meets the load: conservatively use the fastest model.
		f := models.Fastest()
		chosen = &f
	}
	mu := chosen.ThroughputWithin(cfg.SLO / 2)
	if mu <= 0 {
		mu = chosen.Throughput()
	}
	return mu
}

// clampRate keeps a conditional rate physical: no worker attracts more
// than its uniform share, and a vanished rate floors at a tiny positive
// value so the conditional process stays well-defined.
func clampRate(rate, perWorker float64) float64 {
	if rate > perWorker {
		rate = perWorker
	}
	if !(rate > 0) || math.IsNaN(rate) {
		rate = perWorker * 1e-9
	}
	return rate
}

// sqfRate implements the Appendix I conditional arrival rate λ_w(n) for
// shortest-queue-first balancing: λ/K for n ≤ 2 and ρ^K·μ for n ≥ 3, where
// ρ = λ/(K·μ) is the per-worker utilization.
func sqfRate(cfg Config, models profile.Set, n int) float64 {
	perWorker := cfg.Arrival.Rate() / float64(cfg.Workers)
	if n <= 2 {
		return perWorker
	}
	mu := effectiveServiceRate(cfg, models)
	rho := perWorker / mu
	return clampRate(math.Pow(rho, float64(cfg.Workers))*mu, perWorker)
}

// p2cRate is the power-of-two-choices analogue of sqfRate. Mitzenmacher's
// supermarket model gives P[queue length >= i] ≈ ρ^(2^i − 1) in
// equilibrium, a doubly-exponential tail; a worker already holding n
// queries keeps receiving arrivals only while both sampled queues are at
// least that long, so its conditional rate decays with the same tail:
// λ/K for n ≤ 2 (matching the Appendix I small-queue regime, where the
// balancer cannot distinguish workers) and (λ/K)·ρ^(2^(n−1) − 1) beyond.
// This lands between round-robin's uniform split and SQF's ρ^K cutoff,
// which is exactly P2C's behaviour.
func p2cRate(cfg Config, models profile.Set, n int) float64 {
	perWorker := cfg.Arrival.Rate() / float64(cfg.Workers)
	if n <= 2 || cfg.Workers < 2 {
		return perWorker
	}
	mu := effectiveServiceRate(cfg, models)
	rho := perWorker / mu
	if rho > 1 {
		rho = 1
	}
	exp := math.Pow(2, float64(n-1)) - 1
	if exp > 512 {
		// ρ^exp underflows far before this; clamp so Pow stays finite and
		// every deeper queue state shares one floored rate (keeping the
		// number of distinct probability tables bounded).
		exp = 512
	}
	return clampRate(perWorker*math.Pow(rho, exp), perWorker)
}
