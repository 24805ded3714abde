package core

import (
	"fmt"
	"math"
	"testing"
	"time"

	"ramsis/internal/dist"
	"ramsis/internal/mdp"
)

// untrimmed is the worker builder with f̃ formed by the reference kernel:
// every nonzero phase-posterior weight times every cell of the k-th-arrival
// densities, which is what the build computed before it trimmed their tails
// (tailEps). Its untrimmed f̃ runs past the rate's reach, so its h tables
// run to cellsFor(l) too.
type untrimmed struct {
	*builder
	fk map[float64][][]float64 // rate -> [cell][k-1] k-th-arrival pdf
}

// newUntrimmed takes b over: it rebuilds b's h tables at full length.
func newUntrimmed(b *builder) untrimmed {
	fullLengthTables(b)
	u := untrimmed{b, map[float64][][]float64{}}
	for s := range b.acts {
		if s == b.sp.emptyState() {
			continue
		}
		n, _ := b.stateParams(s)
		proc, k := b.procFor(n)
		if _, ok := u.fk[proc.Rate()]; !ok {
			u.fk[proc.Rate()] = dist.KthArrivalTable(proc, k, b.cells, b.delta)
		}
	}
	return u
}

func (u untrimmed) row(s int, sc *stateScratch) {
	u.rowWith(s, sc, u.density)
}

// density is firstArrivalDensity without the trim: each cell sums
// P(r)·f_{K−r}(t_g) over every r with P(r) ≠ 0, ascending.
func (u untrimmed) density(sc *stateScratch, rate float64, gmax int, pr []float64) []float64 {
	fk := u.fk[rate]
	ft := sc.ft[:gmax]
	clear(ft)
	for r, p := range pr {
		if p == 0 {
			continue
		}
		for g := range ft {
			ft[g] += p * fk[g][len(pr)-r-1]
		}
	}
	return ft
}

// generateChoices runs Generate's pipeline on cfg with the trimmed f̃, or
// with the untrimmed reference, and returns every state's choice and the
// policy's stats.
func generateChoices(t *testing.T, cfg Config, reference bool) ([]Choice, stats) {
	t.Helper()
	b, err := newWorkerBuilder(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var ss stateSpace = b
	if reference {
		ss = newUntrimmed(b)
	}
	st, res, err := generate(ss, &b.solveSpec, mdp.MethodPrioritized, time.Now(), nil)
	if err != nil {
		t.Fatal(err)
	}
	choices := make([]Choice, len(res.Policy))
	for s, ai := range res.Policy {
		choices[s] = b.choice(s, ai)
	}
	return choices, st
}

// TestTrimmedBuildChoicesMatchUntrimmed pins that trimming f̃'s sub-ε tails
// moves no decision: every state's choice under the default solver equals the
// untrimmed reference build's, and the §5.1 expectations agree to 1e-12, on
// TestBuildGolden's 24-configuration grid and on the bench problem at every
// rate the benchmark generates. TestDefaultSolverMatchesJacobi pins the
// trimmed build's choices to Jacobi's on the same configurations.
func TestTrimmedBuildChoicesMatchUntrimmed(t *testing.T) {
	check := func(t *testing.T, cfg Config) {
		got, gotSt := generateChoices(t, cfg, false)
		want, wantSt := generateChoices(t, cfg, true)
		assertSameChoices(t, "trimmed", got, "untrimmed", want)
		if d := math.Abs(gotSt.ExpectedAccuracy - wantSt.ExpectedAccuracy); d > 1e-12 {
			t.Errorf("expected accuracy moved by %g", d)
		}
		if d := math.Abs(gotSt.ExpectedViolation - wantSt.ExpectedViolation); d > 1e-12 {
			t.Errorf("expected violation moved by %g", d)
		}
	}
	buildGrid(func(name string, cfg Config) {
		t.Run(name, func(t *testing.T) { check(t, cfg) })
	})
	if testing.Short() {
		t.Skip("bench-scale generations are slow")
	}
	// The bench problem's four build rates and the Twitter replay's ladder.
	for _, load := range []float64{1200, 1600, 1800, 2300, 3000, 3700, 4200, 4400} {
		t.Run(fmt.Sprintf("bench/%v", load), func(t *testing.T) { check(t, benchConfig(load)) })
	}
}

// TestTrimmedDensityWithinBound checks tailEps's tolerance argument state by
// state: over the whole quadrature horizon, the trimmed f̃ differs from the
// untrimmed reference by at most (K+2)·tailEps of mass, Σ_g |Δf̃_g|·δ, on
// every state of the bench problem and of TestBuildGolden's grid.
func TestTrimmedDensityWithinBound(t *testing.T) {
	check := func(t *testing.T, cfg Config) {
		b, err := newWorkerBuilder(cfg)
		if err != nil {
			t.Fatal(err)
		}
		u := newUntrimmed(b)
		sc, ref := b.newScratch(), b.newScratch()
		worst := 0.0
		for s := range b.acts {
			if s == b.sp.emptyState() {
				continue
			}
			n, tj := b.stateParams(s)
			proc, k := b.procFor(n)
			pr := sc.phasePosterior(proc, k, n, b.sp.cfg.SLO-tj, b.logFact)
			got := b.firstArrivalDensity(sc, proc.Rate(), b.cells, pr)
			want := u.density(ref, proc.Rate(), b.cells, pr)
			moved := 0.0
			for g := range want {
				moved += math.Abs(got[g]-want[g]) * b.delta
			}
			if bound := float64(k+2) * tailEps; moved > bound {
				t.Errorf("state %d: trim moved %g of f̃·δ, bound (K+2)ε = %g", s, moved, bound)
			}
			worst = max(worst, moved)
		}
		t.Logf("largest per-state mass moved: %g", worst)
	}
	buildGrid(func(name string, cfg Config) {
		t.Run(name, func(t *testing.T) { check(t, cfg) })
	})
	for _, load := range []float64{1200, 1800, 3000, 4200} {
		t.Run(fmt.Sprintf("bench/%v", load), func(t *testing.T) { check(t, benchConfig(load)) })
	}
}

// TestTrimmedDensityHasNoSubnormalTerms pins why the trim is fast: on the
// bench problem, no product f̃ adds and no partial sum it forms is subnormal
// (each such operation costs many times a normal one). It scans every term
// firstArrivalDensity adds over the whole quadrature horizon, in its order,
// and checks that the scan lands on the kernel's result bit for bit.
func TestTrimmedDensityHasNoSubnormalTerms(t *testing.T) {
	subnormal := func(x float64) bool { return x != 0 && math.Abs(x) < 0x1p-1022 }
	for _, load := range []float64{1200, 3000, 4200} {
		t.Run(fmt.Sprintf("bench/%v", load), func(t *testing.T) {
			b, err := newWorkerBuilder(benchConfig(load))
			if err != nil {
				t.Fatal(err)
			}
			sc := b.newScratch()
			sums := make([]float64, b.cells)
			terms, products, partials := 0, 0, 0
			for s := range b.acts {
				if s == b.sp.emptyState() {
					continue
				}
				n, tj := b.stateParams(s)
				proc, k := b.procFor(n)
				pr := sc.phasePosterior(proc, k, n, b.sp.cfg.SLO-tj, b.logFact)
				fk := b.fk[proc.Rate()]
				clear(sums)
				for r, p := range pr {
					if p < tailEps {
						continue
					}
					w := fk[k-r-1]
					for i, f := range w.f {
						term := p * f
						sums[w.off+i] += term
						terms++
						if subnormal(term) {
							products++
						}
						if subnormal(sums[w.off+i]) {
							partials++
						}
					}
				}
				ft := b.firstArrivalDensity(sc, proc.Rate(), b.cells, pr)
				for g := range ft {
					if math.Float64bits(ft[g]) != math.Float64bits(sums[g]) {
						t.Fatalf("state %d cell %d: scan summed %g, kernel %g", s, g, sums[g], ft[g])
					}
				}
			}
			if products+partials > 0 {
				t.Errorf("%d subnormal products and %d subnormal partial sums among %d f̃ terms", products, partials, terms)
			}
		})
	}
}
