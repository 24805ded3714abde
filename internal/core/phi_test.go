package core

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"ramsis/internal/dist"
	"ramsis/internal/llm"
	"ramsis/internal/mdp"
)

// directPhi is the token builder with the reference CLT kernel: Φ evaluated
// by stdNormCDF at every edge of every window, which is what the build did
// before it kept a Φ table. It records every argument it evaluates, by bits
// alone and by the table slot that argument lands in, so it runs on one
// goroutine.
type directPhi struct {
	*llmBuilder
	args  map[uint64]struct{}
	slots map[phiArg]struct{}
}

// phiArg is one argument at one Φ table slot: residue r, arrival count a,
// edge offset j.
type phiArg struct {
	r    float64
	a, j int
	x    uint64
}

func newDirectPhi(g *llmBuilder) directPhi {
	return directPhi{g, map[uint64]struct{}{}, map[phiArg]struct{}{}}
}

func (d directPhi) row(s int, sc *stateScratch) {
	d.rowWith(s, sc, d.transitions)
}

// transitions is llmBuilder.transitions with every Φ evaluated directly
// into a freshly allocated mass vector.
func (d directPhi) transitions(sc *stateScratch, base, tau float64) {
	g := d.llmBuilder
	w := float64(g.w)
	q := math.Floor(base / w)
	phi := func(a, k int, x float64) float64 {
		d.args[math.Float64bits(x)] = struct{}{}
		d.slots[phiArg{base - q*w, a, k - int(q), math.Float64bits(x)}] = struct{}{}
		return stdNormCDF(x)
	}
	mass := make([]float64, g.b+2)
	mu := g.lambdaW * tau
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
			lo := min(max(0, int((mean-phiWindow*sd)/w)), g.b)
			hi := min(int((mean+phiWindow*sd)/w)+1, g.b)
			prev := phi(a, lo, (float64(lo*g.w)-mean)/sd)
			if lo == 0 {
				mass[0] += pa * prev
			}
			for k := lo + 1; k <= hi; k++ {
				cur := phi(a, k, (float64(k*g.w)-mean)/sd)
				mass[k] += pa * (cur - prev)
				prev = cur
			}
			mass[g.b+1] += pa * (1 - prev)
		}
		cum += pa
		if cum >= 1-g.cfg.ProbFloor || a >= 1024 {
			break
		}
	}
	g.sparse(&sc.w, mass)
}

// serialRows writes every row of ss on one goroutine with one scratch, as
// one chunk, and returns it with the scratch.
func serialRows(ss stateSpace) (*mdp.Compiled, *stateScratch) {
	sc := ss.newScratch()
	for s := range ss.numStates() {
		ss.row(s, sc)
	}
	return sc.w.Cut(), sc
}

// TestLLMPhiTableMatchesDirect pins the token build's Φ table against the
// reference kernel that evaluates Φ at every edge: every row's
// (Next, Float64bits(P)) is identical on the repository benchmark's three
// classes and, at MaxTokens 16384, on 3 classes × 4 bucket widths × 4 rates
// and a KV-cap override — a wider grid than TestLLMBuildGolden's — with the
// build fanned out over GOMAXPROCS goroutines, each table seeing its own
// subset of rows. Built serially, the table evaluates Φ once per distinct
// (slot, argument) pair the reference meets — a slot is never refilled with
// an argument it held before — and, on this grid, once per distinct
// argument; the benchmark configuration's counts are pinned.
func TestLLMPhiTableMatchesDirect(t *testing.T) {
	type gridCase struct {
		name     string
		cfg      LLMConfig
		distinct int // distinct arguments the reference evaluates, if pinned
	}
	var grid []gridCase
	benchDistinct := map[string]int{"general": 76378, "codegen": 74455, "reasoning": 94634}
	for _, cls := range llm.Classes() {
		grid = append(grid, gridCase{cls.Name + "/bench", benchLLMConfig(cls), benchDistinct[cls.Name]})
		for _, bucket := range []int{64, 128, 200, 512} {
			for _, rate := range []float64{0.5, 2, 8, 20} {
				cfg := benchLLMConfig(cls)
				cfg.TokenBucket, cfg.Rate, cfg.MaxTokens = bucket, rate, 16384
				grid = append(grid, gridCase{name: fmt.Sprintf("%s/bucket=%d/rate=%v", cls.Name, bucket, rate), cfg: cfg})
			}
		}
	}
	kv := benchLLMConfig(llm.GeneralClass())
	kv.KVCap, kv.MaxTokens = 2048, 16384
	grid = append(grid, gridCase{name: "general/kvcap=2048", cfg: kv})

	for _, c := range grid {
		t.Run(c.name, func(t *testing.T) {
			ref, err := newLLMBuilder(c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			direct := newDirectPhi(ref)
			want, _ := serialRows(direct)

			got, err := buildLLM(c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			compareRows(t, "parallel build", got, want)

			g, err := newLLMBuilder(c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			serial, sc := serialRows(g)
			compareRows(t, "serial build", serial, want)
			if sc.phi.evals != len(direct.slots) {
				t.Errorf("serial build evaluated Φ %d times for %d distinct (slot, argument) pairs", sc.phi.evals, len(direct.slots))
			}
			// Two slots can meet the same bits (general at bucket 64 and
			// MaxTokens 65,536 does, once), so once per distinct argument is
			// measured on this grid, not implied by the table's design.
			if runtime.GOARCH != "amd64" {
				return
			}
			if sc.phi.evals != len(direct.args) {
				t.Errorf("serial build evaluated Φ %d times for %d distinct arguments", sc.phi.evals, len(direct.args))
			}
			if c.distinct != 0 && len(direct.args) != c.distinct {
				t.Errorf("reference evaluated %d distinct arguments, want %d", len(direct.args), c.distinct)
			}
		})
	}
}

// compareRows reports the first state whose actions differ between got and
// want in count, reward or any (Next, Float64bits(P)).
func compareRows(t *testing.T, what string, got, want *mdp.Compiled) {
	t.Helper()
	if got.NumStates() != want.NumStates() {
		t.Fatalf("%s: %d states, want %d", what, got.NumStates(), want.NumStates())
	}
	for s := range want.NumStates() {
		if !sameActions(got, want, s) {
			t.Fatalf("%s: state %d differs from the reference kernel", what, s)
		}
	}
}

func sameActions(x, y *mdp.Compiled, s int) bool {
	if x.NumActions(s) != y.NumActions(s) {
		return false
	}
	for a := range x.NumActions(s) {
		xr, xn, xp := x.Action(s, a)
		yr, yn, yp := y.Action(s, a)
		if math.Float64bits(xr) != math.Float64bits(yr) || len(xn) != len(yn) {
			return false
		}
		for k := range xn {
			if xn[k] != yn[k] || math.Float64bits(xp[k]) != math.Float64bits(yp[k]) {
				return false
			}
		}
	}
	return true
}
