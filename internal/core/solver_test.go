package core

import (
	"fmt"
	"testing"

	"ramsis/internal/llm"
	"ramsis/internal/mdp"
)

// scalarChoices and llmChoices adapt the two generators to
// assertJacobiChoices: generate with the default prioritized sweeps or the
// reference Jacobi sweep and return the sweep count and every state's
// choice.
func scalarChoices(cfg Config) func(method mdp.Method) (int, []Choice, error) {
	return func(method mdp.Method) (int, []Choice, error) {
		pol, err := generateWith(cfg, method)
		if err != nil {
			return 0, nil, err
		}
		return pol.Iterations, pol.Choices, nil
	}
}

func llmChoices(cfg LLMConfig) func(method mdp.Method) (int, []LLMChoice, error) {
	return func(method mdp.Method) (int, []LLMChoice, error) {
		pol, err := generateLLMWith(cfg, method)
		if err != nil {
			return 0, nil, err
		}
		return pol.Iterations, pol.Choices, nil
	}
}

// assertJacobiChoices fails unless the default solver lands on the explicit
// Jacobi sweep's choice in every state, in fewer sweep-equivalents — or in
// the one sweep Jacobi needs when every reward is zero (no action meets the
// SLO), which nothing can beat.
func assertJacobiChoices[C comparable](t *testing.T, gen func(method mdp.Method) (int, []C, error)) {
	t.Helper()
	iters, got, err := gen(mdp.MethodPrioritized)
	if err != nil {
		t.Fatal(err)
	}
	jacobiIters, want, err := gen(mdp.MethodJacobi)
	if err != nil {
		t.Fatal(err)
	}
	if iters >= jacobiIters && jacobiIters > 1 {
		t.Errorf("default solver took %d sweep-equivalents, Jacobi %d", iters, jacobiIters)
	}
	assertSameChoices(t, "default solver", got, "Jacobi", want)
}

// assertSameChoices fails unless got and want make the same choice in every
// state.
func assertSameChoices[C comparable](t *testing.T, gotName string, got []C, wantName string, want []C) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("state count mismatch: %s %d vs %s's %d", gotName, len(got), wantName, len(want))
	}
	for s := range want {
		if got[s] != want[s] {
			t.Errorf("state %d: %s chose %+v, %s %+v", s, gotName, got[s], wantName, want[s])
		}
	}
}

// benchLLMConfig is the repository benchmark's token generation problem
// (bench/'s llmConfig) for one class at the rate bench/ serves it.
func benchLLMConfig(cls llm.Class) LLMConfig {
	return LLMConfig{
		Models:      llm.BuiltinSet(),
		SLO:         8.0,
		Workers:     2,
		Rate:        map[string]float64{"general": 8, "codegen": 2, "reasoning": 0.5}[cls.Name],
		In:          cls.In,
		Out:         cls.Out,
		TokenBucket: 128,
		MaxTokens:   65536,
	}
}

// TestDefaultSolverMatchesJacobi is the contract a zero Config solves under:
// the prioritized sweeps stop on a full sweep with residual below the solver
// tolerance, as Jacobi does, and the greedy policy they return is Jacobi's in
// every state — on TestBuildGolden's 24-configuration grid, on a 30-cell
// token grid (three classes × five rates × two SLOs at 8,192 tokens), on the
// repository benchmark's image problem at the eight rates its workloads
// generate, and on its three token classes.
func TestDefaultSolverMatchesJacobi(t *testing.T) {
	buildGrid(func(name string, cfg Config) {
		t.Run(name, func(t *testing.T) { assertJacobiChoices(t, scalarChoices(cfg)) })
	})
	for _, cls := range llm.Classes() {
		for _, rate := range []float64{0.25, 1, 4, 12, 24} {
			for _, slo := range []float64{4, 16} {
				cfg := benchLLMConfig(cls)
				cfg.Rate, cfg.SLO, cfg.MaxTokens = rate, slo, 8192
				t.Run(fmt.Sprintf("llm/%s/%vqps/%vs", cls.Name, rate, slo), func(t *testing.T) {
					assertJacobiChoices(t, llmChoices(cfg))
				})
			}
		}
	}
	if testing.Short() {
		t.Skip("bench-scale generations are slow")
	}
	for _, load := range []float64{1200, 1600, 1800, 2300, 3000, 3700, 4200, 4400} {
		t.Run(fmt.Sprintf("bench/%v", load), func(t *testing.T) {
			assertJacobiChoices(t, scalarChoices(benchConfig(load)))
		})
	}
	for _, cls := range llm.Classes() {
		t.Run("bench/"+cls.Name, func(t *testing.T) {
			assertJacobiChoices(t, llmChoices(benchLLMConfig(cls)))
		})
	}
}

// TestOrderedFallback forces index-band aggregation onto the benchmark's
// image MDP at 4,200 and 4,400 QPS, whose state index is not one load axis
// and where bands alone stall for thousands of sweeps. The fallback to
// residual quantiles must still land on Jacobi's choice in every state in
// under 100 sweep-equivalents; MaxIter 300 makes a stall fail fast.
func TestOrderedFallback(t *testing.T) {
	for _, load := range []float64{4200, 4400} {
		t.Run(fmt.Sprintf("%vqps", load), func(t *testing.T) {
			cm, err := BuildWorkerMDP(benchConfig(load))
			if err != nil {
				t.Fatal(err)
			}
			opts := mdp.SolveOptions{Gamma: 0.99}
			want, err := cm.ValueIteration(opts)
			if err != nil {
				t.Fatal(err)
			}
			opts.Method, opts.Ordered, opts.MaxIter = mdp.MethodPrioritized, true, 300
			got, err := cm.Solve(opts)
			if err != nil {
				t.Fatal(err)
			}
			if got.Iterations >= 100 {
				t.Errorf("ordered solve took %d sweep-equivalents, want < 100", got.Iterations)
			}
			assertSameChoices(t, "ordered solve", got.Policy, "Jacobi", want.Policy)
		})
	}
}

// TestRestrictedEndgame solves the benchmark's smoke grid (D 10, FineCells
// 32) at 3,000 QPS, whose residual lingers on a few of its 354 states after
// the aggregation steps. The restricted Gauss-Seidel pass over the states still
// moving must finish it in under 100 sweep-equivalents — full sweeps alone
// need over a thousand — on Jacobi's choice in every state; MaxIter 300
// makes a missing endgame fail fast.
func TestRestrictedEndgame(t *testing.T) {
	cfg := benchConfig(3000)
	cfg.D, cfg.FineCells = 10, 32
	cm, err := BuildWorkerMDP(cfg)
	if err != nil {
		t.Fatal(err)
	}
	opts := mdp.SolveOptions{Gamma: 0.99}
	want, err := cm.ValueIteration(opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Method, opts.MaxIter = mdp.MethodPrioritized, 300
	got, err := cm.Solve(opts)
	if err != nil {
		t.Fatal(err)
	}
	if got.Iterations >= 100 {
		t.Errorf("prioritized solve took %d sweep-equivalents, want < 100", got.Iterations)
	}
	assertSameChoices(t, "prioritized solve", got.Policy, "Jacobi", want.Policy)
}
