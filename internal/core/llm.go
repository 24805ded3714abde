package core

import (
	"fmt"
	"math"
	"time"

	"ramsis/internal/dist"
	"ramsis/internal/llm"
	"ramsis/internal/mdp"
)

// LLMConfig describes one worker-level token-stream policy-generation
// problem: the token-level analog of Config. The MDP state is the worker's
// outstanding token load (prefill still to ingest plus decode still to
// generate, bucketed), the actions are the step models on the
// accuracy/throughput Pareto front, and one decision epoch is one
// continuous-batching engine step.
type LLMConfig struct {
	// Models are the step models pre-loaded on the worker.
	Models llm.Set
	// SLO is the end-to-end response latency SLO in seconds.
	SLO float64
	// Workers is K, the number of workers the balancer spreads arrivals over.
	Workers int
	// Rate is the aggregate query arrival rate in QPS (Poisson).
	Rate float64
	// In and Out are the prompt and output token-length distributions the
	// transition probabilities are derived from.
	In, Out dist.LengthSampler

	// TokenBucket is the state-space bucket width in tokens; default 512.
	TokenBucket int
	// MaxTokens bounds the bucketed load axis; loads beyond it collapse into
	// one overflow state. Default 32768.
	MaxTokens int
	// KVCap, when > 0, overrides every model's KV capacity (the -llm-kv-cap
	// knob), so the policy is generated for the deployed cache size.
	KVCap int
}

func (c LLMConfig) withDefaults() LLMConfig {
	if c.TokenBucket == 0 {
		c.TokenBucket = 512
	}
	if c.MaxTokens == 0 {
		c.MaxTokens = 32768
	}
	return c
}

// validate reports configuration errors.
func (c LLMConfig) validate() error {
	if err := c.Models.Validate(); err != nil {
		return err
	}
	if !(c.SLO > 0) || math.IsInf(c.SLO, 0) {
		return fmt.Errorf("core: invalid SLO %v", c.SLO)
	}
	if c.Workers < 1 {
		return fmt.Errorf("core: invalid worker count %d", c.Workers)
	}
	if !(c.Rate > 0) || math.IsInf(c.Rate, 0) {
		return fmt.Errorf("core: invalid arrival rate %v", c.Rate)
	}
	if c.In == nil || c.Out == nil {
		return fmt.Errorf("core: nil token-length sampler")
	}
	if c.TokenBucket < 1 {
		return fmt.Errorf("core: invalid token bucket width %d", c.TokenBucket)
	}
	if c.MaxTokens < c.TokenBucket {
		return fmt.Errorf("core: max tokens %d below bucket width %d", c.MaxTokens, c.TokenBucket)
	}
	return nil
}

// LLMChoice is one token-stream model-selection decision: run the next
// engine step on Model, scheduling PrefillTokens + DecodeTokens tokens.
// Arrival marks the empty-load wait-for-arrival action.
type LLMChoice struct {
	Model         string  `json:"model"`
	ModelIdx      int     `json:"modelIdx"`
	PrefillTokens int     `json:"prefillTokens"`
	DecodeTokens  int     `json:"decodeTokens"`
	StepTime      float64 `json:"stepTime"`
	TokenRate     float64 `json:"tokenRate"`
	Satisfies     bool    `json:"satisfies"`
	Arrival       bool    `json:"arrival,omitempty"`
}

// LLMPolicy is an offline-generated per-worker token-stream selection
// policy: a mapping from bucketed outstanding-token load to the step model
// the next engine step should run. Its embedded stats hold the stationary
// expectations, weighted by the tokens each decision schedules, and the
// size and timing of the generation run. State 0 is the empty worker; state
// k in 1..buckets() covers loads in ((k-1)·TokenBucket, k·TokenBucket]; the
// last state absorbs overflow.
type LLMPolicy struct {
	Task        string  `json:"task"`
	SLO         float64 `json:"slo"`
	Workers     int     `json:"workers"`
	Load        float64 `json:"load"`
	TokenBucket int     `json:"tokenBucket"`
	MaxTokens   int     `json:"maxTokens"`

	// Choices maps state indices (0 = empty, then load buckets) to
	// decisions.
	Choices []LLMChoice `json:"choices"`

	stats

	models llm.Set
}

// Models returns the (pruned) step-model set the policy selects over.
// Choices' ModelIdx indexes into it.
func (p *LLMPolicy) Models() llm.Set { return p.models }

// buckets returns the load-bucket count (states minus empty and overflow).
func (p *LLMPolicy) buckets() int { return len(p.Choices) - 2 }

// Select returns the policy's decision for a worker holding
// outstandingTokens tokens of unfinished work (prefill not yet ingested
// plus decode not yet generated, over waiting and running queries alike).
// Loads beyond MaxTokens use the overflow state's forced decision; a
// non-positive load maps to the lightest-load bucket so callers always get
// a runnable model.
func (p *LLMPolicy) Select(outstandingTokens int) LLMChoice {
	return p.Choices[p.state(outstandingTokens)]
}

// state returns the state Select reads for outstandingTokens: its bucket
// ⌈outstandingTokens / TokenBucket⌉, clamped to bucket 1 below and to the
// overflow state above (and written so that no load overflows).
func (p *LLMPolicy) state(outstandingTokens int) int {
	if outstandingTokens <= p.TokenBucket {
		return 1
	}
	return min((outstandingTokens-1)/p.TokenBucket+1, p.buckets()+1)
}

// SelectRange returns Select's decision for outstandingTokens and the loads
// [lo, hi] that Select maps to the same state, and so to the same decision:
// a bucket ((k-1)·TokenBucket, k·TokenBucket], except that bucket 1 reaches
// down to math.MinInt (Select clamps every load of at most one bucket
// there) and the overflow state up to math.MaxInt.
func (p *LLMPolicy) SelectRange(outstandingTokens int) (c LLMChoice, lo, hi int) {
	k := p.state(outstandingTokens)
	lo, hi = (k-1)*p.TokenBucket+1, k*p.TokenBucket
	if k == 1 {
		lo = math.MinInt
	}
	if k == p.buckets()+1 {
		hi = math.MaxInt
	}
	return p.Choices[k], lo, hi
}

// llmBuilder is the token MDP's stateSpace: the shared pieces of one
// GenerateLLM run, from which it builds one state's row at a time.
type llmBuilder struct {
	solveSpec
	cfg     LLMConfig
	models  llm.Set // pruned, KV-cap-overridden action set
	w       int     // bucket width in tokens
	b       int     // load bucket count (states: 0..b+1)
	cell    int     // fine-cell width for the one-arrival convolution
	sumCell []float64
	muS     float64     // mean total tokens per query
	sigmaS  float64     // stddev of total tokens per query
	lambdaW float64     // per-worker arrival rate
	plans   [][]llmPlan // state -> actions' step plans, in action order
}

// cellPMF tabulates P(X ∈ ((i-1)c, ic]) for i = 1..ceil(max/c).
func cellPMF(s dist.LengthSampler, c int) []float64 {
	n := (s.MaxLen() + c - 1) / c
	pmf := make([]float64, n+1)
	prev := 0.0
	for i := 1; i <= n; i++ {
		cur := s.CDFLen(i * c)
		pmf[i] = cur - prev
		prev = cur
	}
	return pmf
}

// newLLMBuilder defaults and validates the configuration and prepares the
// one-arrival convolution every row reads. State s is load bucket s, so the
// solve is told its states are ordered.
func newLLMBuilder(cfg LLMConfig) (*llmBuilder, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	g := &llmBuilder{
		cfg:     cfg,
		models:  cfg.Models.WithKVCap(cfg.KVCap),
		w:       cfg.TokenBucket,
		b:       (cfg.MaxTokens + cfg.TokenBucket - 1) / cfg.TokenBucket,
		muS:     cfg.In.MeanLen() + cfg.Out.MeanLen(),
		sigmaS:  math.Sqrt(cfg.In.VarLen() + cfg.Out.VarLen()),
		lambdaW: cfg.Rate / float64(cfg.Workers),
	}
	g.gamma, g.ordered = defaultGamma, true
	g.models = g.models.ParetoFront()
	if g.models.Len() == 0 {
		return nil, fmt.Errorf("core: no step models survive Pareto pruning")
	}
	g.plans = make([][]llmPlan, g.numStates())
	// Quarter-bucket cells keep the one-arrival convolution's
	// discretization error well inside the bucket width.
	g.cell = max(1, g.w/4)
	in := cellPMF(cfg.In, g.cell)
	out := cellPMF(cfg.Out, g.cell)
	// Cell i represents (i-1/2)c, so a sum lands on ((i+j-1))c exactly.
	g.sumCell = make([]float64, len(in)+len(out))
	for i := 1; i < len(in); i++ {
		if in[i] == 0 {
			continue
		}
		for j := 1; j < len(out); j++ {
			g.sumCell[i+j-1] += in[i] * out[j]
		}
	}
	return g, nil
}

// bucketOf maps a token load to its state index.
func (g *llmBuilder) bucketOf(tokens float64) int {
	if tokens <= 0 {
		return 0
	}
	return min(max(int(math.Ceil(tokens/float64(g.w))), 1), g.b+1)
}

// stdNormCDF is the standard normal CDF Φ(x).
func stdNormCDF(x float64) float64 { return 0.5 * math.Erfc(-x/math.Sqrt2) }

// phiWindow is how many standard deviations around the mean the CLT rows
// evaluate Φ over. Past +6√2 ≈ 8.49 math.Erfc returns exactly 2, so Φ is
// exactly 1 and every further bucket difference exactly 0; below −8.5, Φ is
// under 10⁻¹⁷, seven orders beneath the floor the row is cut at.
const phiWindow = 8.5

// transitions writes the sparse successor distribution of one step: the
// post-step residual load base plus A ~ Poisson(λ_w·τ) arrivals, each
// bringing In+Out tokens. A = 1 uses the exact (cell-discretized)
// convolution of the two length pmfs; A >= 2 uses the CLT normal over
// bucket edges, which the independent-sum variance justifies. Φ comes from
// the goroutine's phiTable, which returns exactly what stdNormCDF would.
func (g *llmBuilder) transitions(sc *stateScratch, base, tau float64) {
	mass := sc.mass
	mu := g.lambdaW * tau
	w := float64(g.w)
	// Edge k lies j = k − q buckets above base's bucket floor q·w, so the
	// Φ table files it under (a, base − q·w) at offset j.
	q := math.Floor(base / w)
	res, kq := sc.phi.residue(base-q*w), int(q)
	cum := 0.0
	for a := 0; ; a++ {
		pa := dist.PoissonPMF(a, mu)
		switch a {
		case 0:
			mass[g.bucketOf(base)] += pa
		case 1:
			for k := 1; k < len(g.sumCell); k++ {
				if g.sumCell[k] > 0 {
					mass[g.bucketOf(base+float64(k*g.cell))] += pa * g.sumCell[k]
				}
			}
		default:
			mean := base + float64(a)*g.muS
			sd := math.Sqrt(float64(a)) * g.sigmaS
			// Edges lo..hi bracket mean ± phiWindow·sd; prev starts at the
			// edge below the window so the telescoping sum is the full
			// loop's, and past hi every term (overflow included) is 0.
			lo := min(max(0, int((mean-phiWindow*sd)/w)), g.b)
			hi := min(int((mean+phiWindow*sd)/w)+1, g.b)
			slab := res.slab(a, lo-kq, hi-kq)
			prev := sc.phi.at(slab, lo-kq, (float64(lo*g.w)-mean)/sd)
			if lo == 0 {
				mass[0] += pa * prev
			}
			for k := lo + 1; k <= hi; k++ {
				cur := sc.phi.at(slab, k-kq, (float64(k*g.w)-mean)/sd)
				mass[k] += pa * (cur - prev)
				prev = cur
			}
			mass[g.b+1] += pa * (1 - prev)
		}
		cum += pa
		if cum >= 1-defaultProbFloor || a >= 1024 {
			break
		}
	}
	g.sparse(&sc.w, mass)
}

// sparse writes a per-state mass vector as the current action's successors:
// entries below defaultProbFloor are dropped and the rest renormalized. It
// leaves mass zeroed for the next row.
func (g *llmBuilder) sparse(w *mdp.Writer, mass []float64) {
	total := 0.0
	for _, p := range mass {
		if p >= defaultProbFloor {
			total += p
		}
	}
	for s, p := range mass {
		if p >= defaultProbFloor {
			w.Edge(int32(s), p/total)
		}
		mass[s] = 0
	}
}

// phiTable is one build goroutine's cache of Φ at the CLT rows' bucket
// edges. An action's argument (k·w − base − a·μ_S)/(√a·σ_S) depends on base
// only through its residue r = base − ⌊base/w⌋·w up to rounding, so the
// table keys a slab by (r, a) and indexes it densely by the edge's offset j
// from base's bucket. But base + a·μ_S rounds to the ulp of its own
// binade, so when whole buckets of base carry it across a power of two a
// slot meets an argument a few ulps from the one it holds: each slot keeps
// its argument's bits, a hit needs the new argument bit-equal, and a miss
// evaluates stdNormCDF and takes the slot.
// Every slot therefore holds some (x, Φ(x)) pair, and at returns exactly
// stdNormCDF(x) whatever the configuration.
type phiTable struct {
	byRes map[float64]*phiResidue
	evals int // stdNormCDF calls: one per miss
}

// phiResidue holds one residue's slabs, indexed by arrival count a.
type phiResidue struct{ byA []phiSlab }

// phiSlab holds one (residue, a) pair's slots, for edge offsets from off.
type phiSlab struct {
	off   int
	slots []phiSlot
}

// phiSlot is Φ at one argument, keyed by the argument's bits.
type phiSlot struct {
	x   uint64
	phi float64
}

// emptyPhiSlot is a slot no argument has filled: Φ at NaN is NaN, so even
// it holds a true pair.
var emptyPhiSlot = phiSlot{math.Float64bits(math.NaN()), stdNormCDF(math.NaN())}

// residue returns r's slabs, creating them on first use.
func (t *phiTable) residue(r float64) *phiResidue {
	res, ok := t.byRes[r]
	if !ok {
		res = &phiResidue{}
		t.byRes[r] = res
	}
	return res
}

// slab returns a's slab, grown to cover offsets lo..hi.
func (res *phiResidue) slab(a, lo, hi int) *phiSlab {
	if a >= len(res.byA) {
		res.byA = append(res.byA, make([]phiSlab, a+1-len(res.byA))...)
	}
	s := &res.byA[a]
	if len(s.slots) == 0 {
		s.off = lo
	}
	if lo >= s.off && hi < s.off+len(s.slots) {
		return s
	}
	lo, hi = min(lo, s.off), max(hi, s.off+len(s.slots)-1)
	slots := make([]phiSlot, hi-lo+1)
	for i := range slots {
		slots[i] = emptyPhiSlot
	}
	copy(slots[s.off-lo:], s.slots)
	s.off, s.slots = lo, slots
	return s
}

// at returns stdNormCDF(x) for the edge at offset j of s.
func (t *phiTable) at(s *phiSlab, j int, x float64) float64 {
	slot := &s.slots[j-s.off]
	if bits := math.Float64bits(x); slot.x != bits {
		t.evals++
		slot.x, slot.phi = bits, stdNormCDF(x)
	}
	return slot.phi
}

// drainTime models the engine's time to clear a backlog of tokens with the
// workload's mean prefill/decode mix on model m. Decode is the binding
// resource: each sequence yields one token per step, so a backlog of
// n ≈ tokens/μS queries needs d/min(n, MaxSeqs) decode rounds no matter how
// large the step budget is — the serial-decode structure a blended
// tokens-per-second rate misses entirely. Prefill rides along under the
// budget; every step pays β₀ plus the KV penalty. Because step time is
// linear, the total is exact given the step count.
func (g *llmBuilder) drainTime(m llm.StepModel, tokens float64) float64 {
	f := g.cfg.In.MeanLen() / g.muS
	p := f * tokens
	d := (1 - f) * tokens
	n := math.Ceil(tokens / g.muS)
	b := math.Min(n, float64(m.MaxSeqs))
	steps := math.Max(d/b, (p+d)/float64(m.StepBudget()))
	if steps < 1 {
		steps = 1
	}
	kv := math.Min(1, tokens/float64(m.KVCapTokens))
	return steps*(m.Beta0+m.BetaKV*llm.KVPenalty(kv)) + m.BetaPrefill*p + m.BetaDecode*d
}

// stepPlan composes one saturated engine step for model m against load
// tokens: decode-first up to MaxSeqs sequences, prefill chunks filling the
// remaining budget, composition split by the workload's mean
// prefill/decode ratio. Mirrors the simulator's scheduler on the
// bucket-representative load.
func (g *llmBuilder) stepPlan(m llm.StepModel, tokens float64) (p, d int, kv float64) {
	frac := g.cfg.In.MeanLen() / g.muS
	budget := m.StepBudget()
	d = int(math.Round((1 - frac) * tokens))
	d = min(d, m.MaxSeqs, budget)
	p = min(int(math.Round(frac*tokens)), budget-d)
	if p+d == 0 {
		d = 1
	}
	kv = min(1, tokens/float64(m.KVCapTokens))
	return p, d, kv
}

// llmPlan is one action's saturated step: its prefill/decode composition,
// step time, token rate and whether the load drains within the SLO.
type llmPlan struct {
	p, d      int
	tau, rate float64
	sat       bool
}

func (g *llmBuilder) numStates() int { return g.b + 2 }

func (g *llmBuilder) newScratch() *stateScratch {
	return &stateScratch{
		mass: make([]float64, g.b+2),
		phi:  phiTable{byRes: map[float64]*phiResidue{}},
	}
}

// row writes state s's actions. State 0 waits for an arrival, which brings
// one query's In+Out tokens (the one-arrival convolution from zero load);
// every other state offers one saturated step per surviving model, in model
// order. A decision's reward is the model's accuracy when the load (plus one
// typical in-flight query) can drain within the SLO under the serial-decode
// drain model, else zero — the token-level analog of the scalar Satisfies
// bound.
func (g *llmBuilder) row(s int, sc *stateScratch) {
	g.rowWith(s, sc, g.transitions)
}

// rowWith is row with the CLT kernel trans writes each step's successors
// with.
func (g *llmBuilder) rowWith(s int, sc *stateScratch, trans func(sc *stateScratch, base, tau float64)) {
	sc.w.State()
	if s == 0 {
		sc.w.Action(0)
		g.arrivalTransitions(sc)
		return
	}
	rep := (float64(s) - 0.5) * float64(g.w)
	pls := make([]llmPlan, 0, g.models.Len())
	for _, model := range g.models.Models {
		p, d, kv := g.stepPlan(model, rep)
		tau := model.StepTime(p, d, kv)
		rate := float64(p+d) / tau
		sat := g.drainTime(model, rep+g.muS) <= g.cfg.SLO
		reward := 0.0
		if sat {
			reward = model.Accuracy
		}
		sc.w.Action(reward)
		trans(sc, rep-float64(p+d), tau)
		pls = append(pls, llmPlan{p: p, d: d, tau: tau, rate: rate, sat: sat})
	}
	g.plans[s] = pls
}

// outcome is what action a of state s serves: one engine step's prefill and
// decode tokens on model a, or nothing for the empty state's arrival wait.
func (g *llmBuilder) outcome(s, a int) outcome {
	if s == 0 {
		return outcome{satisfies: true}
	}
	pl := g.plans[s][a]
	return outcome{float64(pl.p + pl.d), g.models.Models[a].Accuracy, pl.sat}
}

// GenerateLLM runs the offline phase for one token-stream worker: it
// formulates the bucketed outstanding-token MDP and hands it to the
// generator the scalar path uses, which solves it and computes stationary
// expectations weighted by the tokens each decision schedules. The decision
// epoch is one engine step.
func GenerateLLM(cfg LLMConfig) (*LLMPolicy, error) {
	return generateLLMWith(cfg, mdp.MethodPrioritized)
}

// generateLLMWith is GenerateLLM solved by method; see generateWith.
func generateLLMWith(cfg LLMConfig, method mdp.Method) (*LLMPolicy, error) {
	start := time.Now()
	g, err := newLLMBuilder(cfg)
	if err != nil {
		return nil, err
	}
	st, res, err := generate(g, &g.solveSpec, method, start, nil)
	if err != nil {
		return nil, err
	}
	pol := &LLMPolicy{
		Task:        g.models.Task,
		SLO:         g.cfg.SLO,
		Workers:     g.cfg.Workers,
		Load:        g.cfg.Rate,
		TokenBucket: g.w,
		MaxTokens:   g.cfg.MaxTokens,
		Choices:     make([]LLMChoice, st.States),
		stats:       st,
		models:      g.models,
	}
	pol.Choices[0] = LLMChoice{Arrival: true, Satisfies: true}
	for s := 1; s < len(pol.Choices); s++ {
		mi := res.Policy[s]
		pl := g.plans[s][mi]
		pol.Choices[s] = LLMChoice{
			Model:         g.models.Models[mi].Name,
			ModelIdx:      mi,
			PrefillTokens: pl.p,
			DecodeTokens:  pl.d,
			StepTime:      pl.tau,
			TokenRate:     pl.rate,
			Satisfies:     pl.sat,
		}
	}
	return pol, nil
}

// arrivalTransitions writes the empty-state successor distribution: exactly
// one arriving query's total-token distribution on the cell grid,
// accumulated in the zeroed mass.
func (g *llmBuilder) arrivalTransitions(sc *stateScratch) {
	for k := 1; k < len(g.sumCell); k++ {
		if g.sumCell[k] > 0 {
			sc.mass[g.bucketOf(float64(k*g.cell))] += g.sumCell[k]
		}
	}
	g.sparse(&sc.w, sc.mass)
}
