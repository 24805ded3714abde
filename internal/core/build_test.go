package core

import (
	"fmt"
	"runtime"
	"testing"

	"ramsis/internal/dist"
	"ramsis/internal/llm"
	"ramsis/internal/mdp"
	"ramsis/internal/profile"
)

// transitionHash folds every (Next, Float64bits(P)) of a built MDP, in
// state / action / row order, into one FNV-64a.
func transitionHash(m *mdp.Compiled) uint64 {
	var g goldenHash
	for s := 0; s < m.NumStates(); s++ {
		for a := 0; a < m.NumActions(s); a++ {
			_, next, prob := m.Action(s, a)
			for k, nx := range next {
				g.ints(int(nx))
				g.floats(prob[k])
			}
		}
	}
	return g.sum()
}

// successors returns action a of state s as a map from successor to
// probability.
func successors(m *mdp.Compiled, s, a int) map[int]float64 {
	_, next, prob := m.Action(s, a)
	row := make(map[int]float64, len(next))
	for k, nx := range next {
		row[int(nx)] = prob[k]
	}
	return row
}

// benchConfig is the repository benchmark's generation problem (bench/'s
// imageConfig): the image zoo at a 300 ms SLO on 80 workers, D = 50.
func benchConfig(load float64) Config {
	return Config{
		Models:  profile.ImageSet(),
		SLO:     0.300,
		Workers: 80,
		Arrival: dist.NewPoisson(load),
		D:       50,
	}
}

// smallBuildConfig is TestGenerateGolden's problem (image zoo, 150 ms SLO, 8
// workers, 300 QPS, coarse grid and quadrature) with mut applied.
func smallBuildConfig(mut func(*Config)) Config {
	cfg := Config{
		Models:    profile.ImageSet(),
		SLO:       0.150,
		Workers:   8,
		Arrival:   dist.NewPoisson(300),
		D:         10,
		FineCells: 32,
	}
	mut(&cfg)
	return cfg
}

// buildGrid calls fn with every configuration of the balancer × batching ×
// arrival × queue-bound matrix over smallBuildConfig, and its name.
func buildGrid(fn func(name string, cfg Config)) {
	for _, bal := range []Balancing{RoundRobin, ShortestQueueFirst, PowerOfTwoChoices} {
		for _, bat := range []Batching{MaximalBatching, VariableBatching} {
			for _, arr := range []dist.Process{dist.NewPoisson(300), dist.NewGamma(300, 2)} {
				for _, maxQueue := range []int{0, 12} {
					fn(fmt.Sprintf("%v/%v/%T/maxqueue=%d", bal, bat, arr, maxQueue), smallBuildConfig(func(c *Config) {
						c.Arrival, c.Balancing, c.Batching, c.MaxQueue = arr, bal, bat, maxQueue
					}))
				}
			}
		}
	}
}

// TestBuildGolden pins the transition build alone — every probability that
// reaches the solver, bit for bit — across the balancer × batching × arrival
// × queue-bound matrix TestGenerateGolden does not reach (variable batching,
// power-of-two-choices, Gamma arrivals), plus the benchmark's problem at four
// rates. The constants were captured at commit faf5a8a, the last one whose
// builder tabulated every model × batch latency, except the eleven
// round-robin rows whose f̃ lost sub-ε tails (tailEps), re-captured once when
// the trim landed (the untrimmed reference in trim_test.go reproduced all 28
// old values then). A change that reorders any floating-point operation of
// the build shows up here. Update them only when that is the intent.
func TestBuildGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden constants were captured on amd64, not %s", runtime.GOARCH)
	}
	want := map[string]uint64{
		"round-robin/max/dist.Poisson/maxqueue=0":                0x2a641da4eef092ea,
		"round-robin/max/dist.Poisson/maxqueue=12":               0xaafc73c6c1be56ce,
		"round-robin/max/dist.Gamma/maxqueue=0":                  0x1f9e25ac5eea249b,
		"round-robin/max/dist.Gamma/maxqueue=12":                 0xb7e5c4f4376c426f,
		"round-robin/variable/dist.Poisson/maxqueue=0":           0xd270596ad6189c31,
		"round-robin/variable/dist.Poisson/maxqueue=12":          0x57ff9e57494bcac5,
		"round-robin/variable/dist.Gamma/maxqueue=0":             0x6b7a9a80aeb29c1b,
		"round-robin/variable/dist.Gamma/maxqueue=12":            0x2c9cdae46da79a01,
		"shortest-queue-first/max/dist.Poisson/maxqueue=0":       0x4ae15ac445c77aa2,
		"shortest-queue-first/max/dist.Poisson/maxqueue=12":      0x1aa134850b72d69f,
		"shortest-queue-first/max/dist.Gamma/maxqueue=0":         0x4ae15ac445c77aa2,
		"shortest-queue-first/max/dist.Gamma/maxqueue=12":        0x1aa134850b72d69f,
		"shortest-queue-first/variable/dist.Poisson/maxqueue=0":  0xba3c913856e037cf,
		"shortest-queue-first/variable/dist.Poisson/maxqueue=12": 0x5970238dc80d3c67,
		"shortest-queue-first/variable/dist.Gamma/maxqueue=0":    0xba3c913856e037cf,
		"shortest-queue-first/variable/dist.Gamma/maxqueue=12":   0x5970238dc80d3c67,
		"power-of-two-choices/max/dist.Poisson/maxqueue=0":       0x52816db88c2e586b,
		"power-of-two-choices/max/dist.Poisson/maxqueue=12":      0x44c1c6cbf20bccae,
		"power-of-two-choices/max/dist.Gamma/maxqueue=0":         0x52816db88c2e586b,
		"power-of-two-choices/max/dist.Gamma/maxqueue=12":        0x44c1c6cbf20bccae,
		"power-of-two-choices/variable/dist.Poisson/maxqueue=0":  0x8d54cec194ce0ca4,
		"power-of-two-choices/variable/dist.Poisson/maxqueue=12": 0xa5faa45f117258b9,
		"power-of-two-choices/variable/dist.Gamma/maxqueue=0":    0x8d54cec194ce0ca4,
		"power-of-two-choices/variable/dist.Gamma/maxqueue=12":   0xa5faa45f117258b9,
		"bench/1200": 0x20fbefe186cfcc2a,
		"bench/1800": 0xd7cbb92a162f8a59,
		"bench/3000": 0xc366a855124de2bd,
		"bench/4200": 0x1c4a652bb9def9c7,
	}
	buildGrid(func(name string, cfg Config) {
		m, err := BuildWorkerMDP(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		checkGolden(t, want, name, transitionHash(m))
	})
	for _, load := range []float64{1200, 1800, 3000, 4200} {
		name := fmt.Sprintf("bench/%v", load)
		m, err := BuildWorkerMDP(benchConfig(load))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		checkGolden(t, want, name, transitionHash(m))
	}
}

// TestLLMBuildGolden pins the token MDP's transition build the same way:
// every row of the repository benchmark's three classes (bench/'s llmConfig)
// at two bucket widths. The constants were captured at commit 9d54030, the
// last one whose CLT rows evaluated Φ at every bucket edge, so "bounding the
// edge loop to mean ± 8.5σ leaves the rows unchanged" is a committed number.
func TestLLMBuildGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden constants were captured on amd64, not %s", runtime.GOARCH)
	}
	want := map[string]uint64{
		"general/bucket=128":   0x2a467201c8692ef8,
		"general/bucket=512":   0xfaea1531706b83a7,
		"codegen/bucket=128":   0xaea83efab5f3e514,
		"codegen/bucket=512":   0xc62a621c9d4b5b4b,
		"reasoning/bucket=128": 0x03e97979dd8720cf,
		"reasoning/bucket=512": 0xb59898b70f507461,
	}
	for _, cls := range llm.Classes() {
		for _, bucket := range []int{128, 512} {
			name := fmt.Sprintf("%s/bucket=%d", cls.Name, bucket)
			cfg := benchLLMConfig(cls)
			cfg.TokenBucket = bucket
			m, err := buildLLM(cfg)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			checkGolden(t, want, name, transitionHash(m))
		}
	}
}

// buildWorker formulates (but does not solve) the worker MDP for cfg and
// returns it with the builder that derived it.
func buildWorker(cfg Config) (*builder, *mdp.Compiled, error) {
	b, err := newWorkerBuilder(cfg)
	if err != nil {
		return nil, nil, err
	}
	m, err := build(b, &b.solveSpec)
	return b, m, err
}

// buildLLM formulates (but does not solve) the token MDP for cfg.
func buildLLM(cfg LLMConfig) (*mdp.Compiled, error) {
	g, err := newLLMBuilder(cfg)
	if err != nil {
		return nil, err
	}
	return build(g, &g.solveSpec)
}

func checkGolden(t *testing.T, want map[string]uint64, name string, got uint64) {
	t.Helper()
	if w, ok := want[name]; !ok || got != w {
		t.Errorf("%s: transition hash %#016x, want %#016x", name, got, w)
	}
}

// phasePosterior is the allocating form the transition tests call.
func phasePosterior(proc dist.Process, k, n int, ta float64) []float64 {
	return (&stateScratch{pr: make([]float64, k)}).phasePosterior(proc, k, n, ta, logFactorials(n*k))
}

// TestPrepareTabulatesWhatActionsRead checks the builder's tables against the
// action set: one h and one cdf table per distinct (rate, latency) pair some
// action takes — none for a model × batch latency no state can choose, none
// missing — and the wide cdf table wherever a partial-drain action reads it.
func TestPrepareTabulatesWhatActionsRead(t *testing.T) {
	for _, c := range []struct {
		name  string
		cfg   Config
		pairs int // 0: no fixed expectation
		wide  bool
	}{
		{name: "bench/4200", cfg: benchConfig(4200), pairs: 85},
		{name: "shortest-queue-first", cfg: smallBuildConfig(func(c *Config) { c.Balancing = ShortestQueueFirst })},
		{name: "power-of-two-choices", cfg: smallBuildConfig(func(c *Config) { c.Balancing = PowerOfTwoChoices })},
		{name: "variable", cfg: smallBuildConfig(func(c *Config) { c.Batching = VariableBatching }), wide: true},
		// Maximal batching still drains partially once the queue outgrows a
		// model's profiled batch range; sizing the cdf tables by cfg.Batching
		// indexes past the narrow table in variableTransitions.
		{name: "maximal/maxqueue>maxbatch", cfg: smallBuildConfig(func(c *Config) { c.MaxQueue = 40 }), wide: true},
	} {
		t.Run(c.name, func(t *testing.T) {
			b, m, err := buildWorker(c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := m.Validate(1e-6); err != nil {
				t.Fatal(err)
			}
			sp := b.sp
			type read struct {
				k    int
				wide bool
			}
			reads := map[tableKey]read{}
			rates := map[float64]bool{}
			for s := 1; s < sp.numStates(); s++ {
				n, _ := b.stateParams(s)
				proc, k := b.procFor(n)
				rates[proc.Rate()] = true
				for _, a := range sp.actionsForState(s) {
					key := tableKey{proc.Rate(), a.Latency}
					reads[key] = read{k, reads[key].wide || a.Batch < n}
				}
			}
			if c.pairs != 0 && len(reads) != c.pairs {
				t.Errorf("%d distinct (rate, latency) pairs, want %d", len(reads), c.pairs)
			}
			if c.cfg.Balancing != RoundRobin && len(rates) < 2 {
				t.Errorf("queue-aware balancer produced %d rates; the case is meant to cover several", len(rates))
			}
			if len(b.h) != len(reads) || len(b.cdf) != len(reads) {
				t.Errorf("%d h and %d cdf tables for %d pairs", len(b.h), len(b.cdf), len(reads))
			}
			anyWide := false
			for key, r := range reads {
				want := r.k
				if r.wide {
					want, anyWide = (sp.cfg.MaxQueue+2)*r.k, true
				}
				if b.h[key] == nil {
					t.Errorf("no h table for %v", key)
				}
				if got := len(b.cdf[key]); got != want {
					t.Errorf("cdf table for %v holds %d counts, want %d", key, got, want)
				}
			}
			if anyWide != c.wide {
				t.Errorf("partial-drain actions present = %v, want %v", anyWide, c.wide)
			}
		})
	}
}
