package core

import (
	"fmt"
	"testing"

	"ramsis/internal/llm"
)

// scalarChoices and llmChoices adapt the two generators to
// assertJacobiChoices: generate with or without the explicit Jacobi sweep and
// return the sweep count and every state's choice.
func scalarChoices(cfg Config) func(jacobi bool) (int, []Choice, error) {
	return func(jacobi bool) (int, []Choice, error) {
		cfg.Jacobi = jacobi
		pol, err := Generate(cfg)
		if err != nil {
			return 0, nil, err
		}
		return pol.Iterations, pol.Choices, nil
	}
}

func llmChoices(cfg LLMConfig) func(jacobi bool) (int, []LLMChoice, error) {
	return func(jacobi bool) (int, []LLMChoice, error) {
		cfg.Jacobi = jacobi
		pol, err := GenerateLLM(cfg)
		if err != nil {
			return 0, nil, err
		}
		return pol.Iterations, pol.Choices, nil
	}
}

// assertJacobiChoices fails unless the default solver lands on the explicit
// Jacobi sweep's choice in every state, in fewer sweep-equivalents.
func assertJacobiChoices[C comparable](t *testing.T, gen func(jacobi bool) (int, []C, error)) {
	t.Helper()
	iters, got, err := gen(false)
	if err != nil {
		t.Fatal(err)
	}
	jacobiIters, want, err := gen(true)
	if err != nil {
		t.Fatal(err)
	}
	if iters >= jacobiIters {
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
// every state — on TestBuildGolden's 24-configuration grid, on the repository
// benchmark's image problem at the eight rates its workloads generate, and on
// its three token classes.
func TestDefaultSolverMatchesJacobi(t *testing.T) {
	buildGrid(func(name string, cfg Config) {
		t.Run(name, func(t *testing.T) { assertJacobiChoices(t, scalarChoices(cfg)) })
	})
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
