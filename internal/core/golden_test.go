package core

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"runtime"
	"testing"

	"ramsis/internal/llm"
	"ramsis/internal/mdp"
)

// goldenHash folds a generated policy into one FNV-64a: the integer fields
// of every choice, then the Float64bits of the expectations and of every
// solver value.
type goldenHash struct{ buf []byte }

func (g *goldenHash) ints(xs ...int) {
	for _, x := range xs {
		g.buf = binary.LittleEndian.AppendUint64(g.buf, uint64(int64(x)))
	}
}

func (g *goldenHash) floats(xs ...float64) {
	for _, x := range xs {
		g.buf = binary.LittleEndian.AppendUint64(g.buf, math.Float64bits(x))
	}
}

func (g *goldenHash) sum() uint64 {
	h := fnv.New64a()
	h.Write(g.buf)
	return h.Sum64()
}

// goldenScalar hashes the Jacobi-solved policy of cfg; stats adds its state,
// transition and sweep counts.
func goldenScalar(t *testing.T, cfg Config, stats bool) uint64 {
	t.Helper()
	pol, err := generateWith(cfg, mdp.MethodJacobi)
	if err != nil {
		t.Fatal(err)
	}
	var g goldenHash
	for _, c := range pol.Choices {
		g.ints(c.ModelIdx, c.Batch)
	}
	g.floats(pol.ExpectedAccuracy, pol.ExpectedViolation)
	g.floats(pol.SolveValues()...)
	if stats {
		g.ints(pol.States, pol.Transitions, pol.Iterations)
	}
	return g.sum()
}

// goldenLLM hashes the Jacobi-solved token policy for one class at bucket
// 128 / 8,192 tokens; stats adds its state, transition and sweep counts.
func goldenLLM(t *testing.T, cls llm.Class, stats bool) uint64 {
	t.Helper()
	cfg := llmTestConfig()
	cfg.In, cfg.Out = cls.In, cls.Out
	cfg.TokenBucket, cfg.MaxTokens = 128, 8192
	pol, err := generateLLMWith(cfg, mdp.MethodJacobi)
	if err != nil {
		t.Fatal(err)
	}
	var g goldenHash
	for _, c := range pol.Choices {
		g.ints(c.ModelIdx, c.PrefillTokens, c.DecodeTokens)
	}
	g.floats(pol.ExpectedAccuracy, pol.ExpectedViolation)
	if stats {
		g.ints(pol.States, pol.Transitions, pol.Iterations)
	}
	return g.sum()
}

// TestGenerateGolden pins the whole generation pipeline — transition build,
// compile, Jacobi value iteration (selected explicitly: the default solver's
// values are not byte-pinned), stationary expectations — against committed
// constants, so "policies unchanged" is a check against a committed number
// rather than against a second implementation kept alive to be compared
// with. The first three rows were captured at commit ecb2c22 (the last one
// carrying the slice-form solvers); image/round-robin was re-captured once
// when f̃'s sub-ε tails were trimmed (tailEps). The other five, at TestBuildGolden's
// grid sizes (MaxQueue 12), also hash States, Transitions and Iterations;
// they were captured at 18751c1, the last commit with one generator per
// state space, and cover every path the shared generator runs: both
// queue-aware balancers, variable batching, the model-based grid and all
// three token classes. All eight were re-captured once when the stationary
// pass moved from power iteration on the lazy chain to symmetric
// Gauss–Seidel: a hash over the choices alone was unchanged on every row,
// and each expectation moved by at most 3e-13, towards an exact (GTH) π. A
// change that reorders any floating-point operation on that path shows up
// here; update the constants only when that is the intent.
func TestGenerateGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		// The constants depend on every rounding step; architectures where
		// the compiler fuses multiply-adds round differently.
		t.Skipf("golden constants were captured on amd64, not %s", runtime.GOARCH)
	}
	grid := func(mut func(*Config)) Config {
		return smallBuildConfig(func(c *Config) { c.MaxQueue = 12; mut(c) })
	}
	small := func(bal Balancing) Config {
		return smallBuildConfig(func(c *Config) { c.Balancing = bal })
	}
	for _, c := range []struct {
		name string
		hash func() uint64
		want uint64
	}{
		{"image/round-robin", func() uint64 { return goldenScalar(t, small(RoundRobin), false) }, 0x1dc402dfc5750598},
		{"image/shortest-queue-first", func() uint64 { return goldenScalar(t, small(ShortestQueueFirst), false) }, 0xc54b473c5e1269d6},
		{"llm/general", func() uint64 { return goldenLLM(t, llm.GeneralClass(), false) }, 0x9b0c8017053972c9},
		{"image/power-of-two-choices", func() uint64 {
			return goldenScalar(t, grid(func(c *Config) { c.Balancing = PowerOfTwoChoices }), true)
		}, 0x16797e5d756130d7},
		{"image/variable", func() uint64 {
			return goldenScalar(t, grid(func(c *Config) { c.Batching = VariableBatching }), true)
		}, 0x94cbf6beb4873365},
		{"image/model-based", func() uint64 {
			return goldenScalar(t, grid(func(c *Config) { c.Disc = ModelBased }), true)
		}, 0x8e3cb02ae0357a13},
		{"llm/codegen", func() uint64 { return goldenLLM(t, llm.CodegenClass(), true) }, 0x23d83abf30c42a02},
		{"llm/reasoning", func() uint64 { return goldenLLM(t, llm.ReasoningClass(), true) }, 0x958959b04ecf45b4},
	} {
		if got := c.hash(); got != c.want {
			t.Errorf("%s: golden hash %#016x, want %#016x", c.name, got, c.want)
		}
	}
}
