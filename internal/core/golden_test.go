package core

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"runtime"
	"testing"

	"ramsis/internal/dist"
	"ramsis/internal/profile"
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

func goldenScalar(t *testing.T, bal Balancing) uint64 {
	t.Helper()
	pol, err := Generate(Config{
		Models:    profile.ImageSet(),
		SLO:       0.150,
		Workers:   8,
		Arrival:   dist.NewPoisson(300),
		D:         10,
		FineCells: 32,
		Balancing: bal,
		Jacobi:    true,
	})
	if err != nil {
		t.Fatal(err)
	}
	var g goldenHash
	for _, c := range pol.Choices {
		g.ints(c.ModelIdx, c.Batch)
	}
	g.floats(pol.ExpectedAccuracy, pol.ExpectedViolation)
	g.floats(pol.SolveValues()...)
	return g.sum()
}

func goldenLLM(t *testing.T) uint64 {
	t.Helper()
	cfg := llmTestConfig()
	cfg.TokenBucket, cfg.MaxTokens, cfg.Jacobi = 128, 8192, true
	pol, err := GenerateLLM(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var g goldenHash
	for _, c := range pol.Choices {
		g.ints(c.ModelIdx, c.PrefillTokens, c.DecodeTokens)
	}
	g.floats(pol.ExpectedAccuracy, pol.ExpectedViolation)
	return g.sum()
}

// TestGenerateGolden pins the whole generation pipeline — transition build,
// compile, Jacobi value iteration (selected explicitly: the default solver's
// values are not byte-pinned), stationary expectations — against constants
// captured at commit ecb2c22 (the last one carrying the slice-form solvers),
// so "policies unchanged" is a check against a committed number rather than
// against a second implementation kept alive to be compared with. A change
// that reorders any floating-point operation on that path shows up
// here; update the constants only when that is the intent.
func TestGenerateGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		// The constants depend on every rounding step; architectures where
		// the compiler fuses multiply-adds round differently.
		t.Skipf("golden constants were captured on amd64, not %s", runtime.GOARCH)
	}
	for _, c := range []struct {
		name string
		got  uint64
		want uint64
	}{
		{"image/round-robin", goldenScalar(t, RoundRobin), 0xaf7936c65551bb4e},
		{"image/shortest-queue-first", goldenScalar(t, ShortestQueueFirst), 0xd24588999d013141},
		{"llm/general", goldenLLM(t), 0x7924431818c02b35},
	} {
		if c.got != c.want {
			t.Errorf("%s: golden hash %#016x, want %#016x", c.name, c.got, c.want)
		}
	}
}
