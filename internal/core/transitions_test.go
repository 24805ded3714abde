package core

import (
	"math"
	"testing"

	"ramsis/internal/dist"
	"ramsis/internal/mdp"
	"ramsis/internal/profile"
)

// smallConfig builds a deliberately tiny problem so the literal §4.4
// quadruple sum is tractable.
func smallConfig() Config {
	return Config{
		Models:   profile.ImageSet().Subset("shufflenet_v2_x0_5", "efficientnet_b0"),
		SLO:      0.150,
		Workers:  2,
		Arrival:  dist.NewPoisson(60),
		D:        8,
		MaxQueue: 5,
		// High quadrature resolution for a tight literal comparison.
		FineCells: 4096,
	}.withDefaults()
}

func buildFor(t *testing.T, cfg Config) (*space, *mdp.MDP) {
	t.Helper()
	b, m, err := buildWorker(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Validate(1e-6); err != nil {
		t.Fatalf("MDP invalid: %v", err)
	}
	return b.sp, m
}

func TestBuiltMDPValidates(t *testing.T) {
	for _, mut := range []func(*Config){
		func(c *Config) {},
		func(c *Config) { c.Disc = ModelBased },
		func(c *Config) { c.Batching = VariableBatching },
		func(c *Config) { c.Balancing = ShortestQueueFirst },
		func(c *Config) { c.Balancing = PowerOfTwoChoices },
		func(c *Config) { c.Workers = 1 },
		func(c *Config) { c.NoParetoPruning = true },
	} {
		cfg := smallConfig()
		cfg.FineCells = 512
		mut(&cfg)
		buildFor(t, cfg)
	}
}

func TestArrivalActionTransition(t *testing.T) {
	cfg := smallConfig()
	cfg.FineCells = 256
	sp, m := buildFor(t, cfg)
	acts := m.Actions[sp.emptyState()]
	if len(acts) != 1 {
		t.Fatalf("empty state has %d actions, want 1", len(acts))
	}
	trs := acts[0].Transitions
	if len(trs) != 1 || trs[0].P != 1 {
		t.Fatalf("arrival action transitions = %+v, want single certain", trs)
	}
	wantNext := sp.index(1, sp.bucketOf(cfg.SLO))
	if int(trs[0].Next) != wantNext {
		t.Errorf("arrival action goes to %d, want (1, SLO) = %d", trs[0].Next, wantNext)
	}
}

func TestOverflowStateMatchesFullQueueZeroSlack(t *testing.T) {
	// §4.2.3: (φ, ∅) exhibits transition probabilities equivalent to
	// (N_w, 0).
	cfg := smallConfig()
	cfg.FineCells = 256
	sp, m := buildFor(t, cfg)
	over := m.Actions[sp.overflowState()]
	full := m.Actions[sp.index(cfg.MaxQueue, 0)]
	if len(over) != len(full) {
		t.Fatalf("action counts differ: %d vs %d", len(over), len(full))
	}
	for ai := range over {
		ot, ft := over[ai].Transitions, full[ai].Transitions
		if len(ot) != len(ft) {
			t.Fatalf("transition counts differ for action %d", ai)
		}
		for i := range ot {
			if ot[i].Next != ft[i].Next || math.Abs(ot[i].P-ft[i].P) > 1e-9 {
				t.Fatalf("transition %d differs: %+v vs %+v", i, ot[i], ft[i])
			}
		}
	}
}

// literalCase2 computes P[(n',T_{j'}) | (n,T_j), (m,n)] by the paper's
// Eq. 2 quadruple sum over intervals A, B, C, D with round-robin residue
// bookkeeping, exactly as §4.4.2 writes it.
func literalCase2(cfg Config, grid []float64, n, j int, l float64, np, jp int) float64 {
	k := cfg.Workers
	pf := func(c int, tl float64) float64 { return cfg.Arrival.PF(c, tl) }
	slo := cfg.SLO
	ta := slo - grid[j]

	tb := l + grid[jp] - slo
	if tb < 0 {
		tb = 0
	}
	var tjp1 float64
	if jp+1 < len(grid) {
		tjp1 = grid[jp+1]
	} else {
		tjp1 = slo
	}
	tc := l + tjp1 - slo - tb
	if tc < 0 {
		tc = 0
	}
	td := l - tc - tb
	if td < 0 {
		td = 0
	}

	denom := 0.0
	for ka := (n - 1) * k; ka <= n*k-1; ka++ {
		denom += pf(ka, ta)
	}
	if denom == 0 {
		return 0
	}
	num := 0.0
	for ka := (n - 1) * k; ka <= n*k-1; ka++ {
		u := ka % k
		pa := pf(ka, ta)
		if pa == 0 {
			continue
		}
		for kb := 0; kb <= k-u-1; kb++ {
			pb := pf(kb, tb)
			if pb == 0 {
				continue
			}
			for kc := k - u - kb; kc <= (np+1)*k-u-kb-1; kc++ {
				if kc < 0 {
					continue
				}
				pc := pf(kc, tc)
				if pc == 0 {
					continue
				}
				lo := np*k - u - kb - kc
				if lo < 0 {
					lo = 0
				}
				hi := (np+1)*k - u - kb - 1 - kc
				for kd := lo; kd <= hi; kd++ {
					num += pa * pb * pc * pf(kd, td)
				}
			}
		}
	}
	return num / denom
}

func TestTransitionsMatchLiteralPaperFormula(t *testing.T) {
	cfg := smallConfig()
	sp, m := buildFor(t, cfg)

	// Compare several (state, action) rows against the literal Eq. 2 sums
	// for every successor (n', T_{j'}) with j' below the top bucket (the
	// top bucket is reached only via the arrival action).
	cases := []struct{ n, j int }{{1, len(sp.grid) - 1}, {2, 4}, {3, 6}, {5, 2}, {4, 0}}
	for _, cse := range cases {
		s := sp.index(cse.n, cse.j)
		acts := sp.actionsForState(s)
		for ai, a := range acts {
			got := map[int]float64{}
			for _, tr := range m.Actions[s][ai].Transitions {
				got[int(tr.Next)] = tr.P
			}
			for np := 1; np <= cfg.MaxQueue; np++ {
				for jp := 0; jp < len(sp.grid)-1; jp++ {
					want := literalCase2(cfg, sp.grid, cse.n, cse.j, a.Latency, np, jp)
					g := got[sp.index(np, jp)]
					if math.Abs(g-want) > 2e-3 {
						t.Errorf("state(n=%d,j=%d) action %d (l=%.0fms): P(n'=%d,j'=%d) = %.6f, literal %.6f",
							cse.n, cse.j, ai, a.Latency*1000, np, jp, g, want)
					}
				}
			}
		}
	}
}

func TestEmptyNextStateProbabilityExact(t *testing.T) {
	// P[next = empty] has the closed form Σ_r P(r)·P[N(l) <= K-r-1];
	// verify against a direct computation for a fresh single-query state.
	cfg := smallConfig()
	sp, m := buildFor(t, cfg)
	s := sp.index(1, len(sp.grid)-1) // (1, SLO): phase surely 0
	acts := sp.actionsForState(s)
	for ai, a := range acts {
		want := cfg.Arrival.CDF(cfg.Workers-1, a.Latency)
		got := 0.0
		for _, tr := range m.Actions[s][ai].Transitions {
			if int(tr.Next) == sp.emptyState() {
				got = tr.P
			}
		}
		// The builder renormalizes tiny quadrature overshoot across the
		// whole row, so allow a matching slack here.
		if math.Abs(got-want) > 1e-6 {
			t.Errorf("action %d: P(empty) = %v, want %v", ai, got, want)
		}
	}
}

func TestVariableBatchingRowsNormalized(t *testing.T) {
	cfg := smallConfig()
	cfg.Batching = VariableBatching
	cfg.FineCells = 512
	_, m := buildFor(t, cfg) // Validate inside checks normalization
	if m.NumTransitions() == 0 {
		t.Fatal("no transitions built")
	}
}

func TestVariableBatchingPartialServeKeepsQueue(t *testing.T) {
	// Serving b < n must never transition to a queue shorter than n - b.
	cfg := smallConfig()
	cfg.Batching = VariableBatching
	cfg.FineCells = 512
	sp, m := buildFor(t, cfg)
	for _, cse := range []struct{ n, j int }{{3, 8}, {5, 8}, {4, 6}} {
		s := sp.index(cse.n, cse.j)
		acts := sp.actionsForState(s)
		for ai, a := range acts {
			if a.Batch >= cse.n {
				continue
			}
			rem := cse.n - a.Batch
			for _, tr := range m.Actions[s][ai].Transitions {
				if int(tr.Next) == sp.emptyState() && tr.P > 1e-9 {
					t.Fatalf("partial serve (n=%d,b=%d) reached empty state with P=%v", cse.n, a.Batch, tr.P)
				}
				if int(tr.Next) != sp.overflowState() && int(tr.Next) != sp.emptyState() {
					nn, _ := sp.decompose(int(tr.Next))
					if nn < rem && tr.P > 1e-9 {
						t.Fatalf("partial serve (n=%d,b=%d) transitioned to n'=%d < rem=%d with P=%v",
							cse.n, a.Batch, nn, rem, tr.P)
					}
				}
			}
		}
	}
}

func TestSQFRate(t *testing.T) {
	cfg := testConfig()
	cfg.Arrival = dist.NewPoisson(100) // sub-critical: ρ < 1 strictly
	models := cfg.Models.ParetoFront()
	perWorker := 25.0
	for n := 0; n <= 2; n++ {
		if got := sqfRate(cfg, models, n); math.Abs(got-perWorker) > 1e-9 {
			t.Errorf("sqfRate(n=%d) = %v, want λ/K = %v", n, got, perWorker)
		}
	}
	long := sqfRate(cfg, models, 3)
	if long <= 0 || long >= perWorker {
		t.Errorf("sqfRate(n=3) = %v, want in (0, λ/K): long queues attract fewer arrivals", long)
	}
	// Two regimes only: every n >= 3 shares the long-queue rate.
	if got := sqfRate(cfg, models, 10); got != long {
		t.Errorf("sqfRate(n=10) = %v, want same regime value %v", got, long)
	}
	// At full utilization the rate saturates at λ/K rather than exceeding it.
	cfg.Arrival = dist.NewPoisson(160)
	if got := sqfRate(cfg, models, 3); got > 40+1e-9 {
		t.Errorf("sqfRate at saturation = %v, want <= λ/K = 40", got)
	}
}

func TestP2CRate(t *testing.T) {
	cfg := testConfig()
	cfg.Arrival = dist.NewPoisson(100) // sub-critical: ρ < 1 strictly
	models := cfg.Models.ParetoFront()
	perWorker := 25.0
	// Small queues: indistinguishable from the uniform split, as in the
	// Appendix I SQF regime.
	for n := 0; n <= 2; n++ {
		if got := p2cRate(cfg, models, n); math.Abs(got-perWorker) > 1e-9 {
			t.Errorf("p2cRate(n=%d) = %v, want λ/K = %v", n, got, perWorker)
		}
	}
	// Beyond that the rate decays doubly exponentially: strictly
	// decreasing in n until it hits the floor, always in (0, λ/K], and
	// never below the SQF rate's long-queue regime at the first step
	// (P2C is a weaker equalizer than full JSQ).
	prev := perWorker
	for n := 3; n <= 8; n++ {
		got := p2cRate(cfg, models, n)
		if got <= 0 || got >= prev {
			t.Errorf("p2cRate(n=%d) = %v, want in (0, %v)", n, got, prev)
		}
		prev = got
	}
	if sqf, p2c := sqfRate(cfg, models, 3), p2cRate(cfg, models, 3); p2c < sqf-1e-9 {
		t.Errorf("p2cRate(n=3) = %v < sqfRate(n=3) = %v; P2C should equalize less aggressively", p2c, sqf)
	}
	// At full utilization the rate saturates at λ/K rather than exceeding it.
	cfg.Arrival = dist.NewPoisson(160)
	if got := p2cRate(cfg, models, 3); got > 40+1e-9 {
		t.Errorf("p2cRate at saturation = %v, want <= λ/K = 40", got)
	}
}

func TestTransitionsConcentrateNearExpectedArrivals(t *testing.T) {
	// From a drained queue under load λ with service l, the mean next queue
	// length is about λ·l/K; the transition row's mean should be close.
	cfg := Config{
		Models:   profile.ImageSet().Subset("shufflenet_v2_x0_5"),
		SLO:      0.150,
		Workers:  2,
		Arrival:  dist.NewPoisson(400),
		MaxQueue: 32,
	}.withDefaults()
	sp, m := buildFor(t, cfg)
	s := sp.index(1, len(sp.grid)-1)
	a := sp.actionsForState(s)[0]
	meanArrivals := cfg.Arrival.Rate() * a.Latency / float64(cfg.Workers)
	mean := 0.0
	for _, tr := range m.Actions[s][0].Transitions {
		if int(tr.Next) == sp.emptyState() || int(tr.Next) == sp.overflowState() {
			continue
		}
		nn, _ := sp.decompose(int(tr.Next))
		mean += tr.P * float64(nn)
	}
	if math.Abs(mean-meanArrivals) > 0.35 {
		t.Errorf("mean next queue %v, want ~%v (λ·l/K)", mean, meanArrivals)
	}
}
