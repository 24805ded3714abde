package core

import (
	"math"
	"testing"

	"ramsis/internal/llm"
)

func llmTestConfig() LLMConfig {
	cls := llm.GeneralClass()
	return LLMConfig{
		Models:  llm.BuiltinSet(),
		SLO:     6.0,
		Workers: 2,
		Rate:    10,
		In:      cls.In,
		Out:     cls.Out,
	}
}

func TestGenerateLLMPolicyNonTrivial(t *testing.T) {
	pol, err := GenerateLLM(llmTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	if pol.States != pol.buckets()+2 {
		t.Fatalf("states %d, buckets %d", pol.States, pol.buckets())
	}
	if !pol.Choices[0].Arrival {
		t.Fatal("state 0 should be the arrival action")
	}
	// The policy must actually select: different load buckets choose
	// different models (accuracy under light load, throughput under heavy).
	seen := map[string]bool{}
	for _, c := range pol.Choices[1:] {
		seen[c.Model] = true
	}
	if len(seen) < 2 {
		t.Fatalf("policy is constant (%v); token-level selection should vary with load", seen)
	}
	// Light load runs the most accurate model; the overflow state cannot —
	// it must downshift toward throughput.
	light := pol.Select(1)
	over := pol.Select(pol.MaxTokens * 2)
	models := pol.Models()
	if light.Model != models.Models[models.MostAccurate()].Name {
		t.Errorf("light-load choice %s, want most accurate %s",
			light.Model, models.Models[models.MostAccurate()].Name)
	}
	if over.Model == models.Models[models.MostAccurate()].Name {
		t.Errorf("overflow state still runs %s; backlog cannot drain within the SLO", over.Model)
	}
	if !(pol.ExpectedAccuracy > 0 && pol.ExpectedAccuracy <= 1) {
		t.Errorf("expected accuracy %v outside (0,1]", pol.ExpectedAccuracy)
	}
	if pol.ExpectedViolation < 0 || pol.ExpectedViolation > 1 {
		t.Errorf("expected violation %v outside [0,1]", pol.ExpectedViolation)
	}
	if pol.Iterations == 0 || pol.Transitions == 0 {
		t.Errorf("missing solve stats: %d iterations, %d transitions", pol.Iterations, pol.Transitions)
	}
}

func TestGenerateLLMSelectMapsLoadsToBuckets(t *testing.T) {
	pol, err := GenerateLLM(llmTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	w := pol.TokenBucket
	if got, want := pol.Select(0), pol.Choices[1]; got != want {
		t.Errorf("Select(0) = %+v, want lightest bucket %+v", got, want)
	}
	if got, want := pol.Select(w), pol.Choices[1]; got != want {
		t.Errorf("Select(%d) = %+v, want bucket 1 %+v", w, got, want)
	}
	if got, want := pol.Select(w+1), pol.Choices[2]; got != want {
		t.Errorf("Select(%d) = %+v, want bucket 2 %+v", w+1, got, want)
	}
	if got, want := pol.Select(1<<30), pol.Choices[len(pol.Choices)-1]; got != want {
		t.Errorf("huge load should clamp to the overflow state")
	}
	for _, c := range pol.Choices[1:] {
		if c.Arrival {
			t.Fatal("non-empty state carries an arrival action")
		}
		if c.Model == "" || c.StepTime <= 0 || c.TokenRate <= 0 {
			t.Fatalf("degenerate choice %+v", c)
		}
		if c.PrefillTokens+c.DecodeTokens < 1 {
			t.Fatalf("choice schedules no tokens: %+v", c)
		}
	}
}

// TestLLMPolicySelectRangeMatchesSelect pins SelectRange to the states
// Select reads: for every load from -1 to two buckets past the last, it
// returns Select's decision, each load inside the reported range maps to
// the load's state and decision, the loads just outside it map to other
// states, and the clamped ends reach math.MinInt and math.MaxInt.
func TestLLMPolicySelectRangeMatchesSelect(t *testing.T) {
	cfg := llmTestConfig()
	cfg.TokenBucket, cfg.MaxTokens = 128, 8192
	pol, err := GenerateLLM(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w, top := pol.TokenBucket, (pol.buckets()+2)*pol.TokenBucket
	for x := -1; x <= top; x++ {
		c, lo, hi := pol.SelectRange(x)
		if !(lo <= x && x <= hi) {
			t.Fatalf("SelectRange(%d) range [%d, %d] does not hold the load", x, lo, hi)
		}
		k := pol.state(x)
		if c != pol.Select(x) {
			t.Fatalf("SelectRange(%d) = %+v, Select %+v", x, c, pol.Select(x))
		}
		for y := max(lo, -1); y <= min(hi, top); y++ {
			if pol.state(y) != k || pol.Select(y) != c {
				t.Fatalf("SelectRange(%d) range [%d, %d], but load %d is in state %d, not %d", x, lo, hi, y, pol.state(y), k)
			}
		}
		if lo != math.MinInt && pol.state(lo-1) == k {
			t.Fatalf("SelectRange(%d) range [%d, %d], but load %d is in its state %d too", x, lo, hi, lo-1, k)
		}
		if hi != math.MaxInt && pol.state(hi+1) == k {
			t.Fatalf("SelectRange(%d) range [%d, %d], but load %d is in its state %d too", x, lo, hi, hi+1, k)
		}
		if (lo == math.MinInt) != (k == 1) || (hi == math.MaxInt) != (k == pol.buckets()+1) {
			t.Fatalf("SelectRange(%d) range [%d, %d] in state %d: only bucket 1 and the overflow state are open-ended", x, lo, hi, k)
		}
	}
	if _, lo, _ := pol.SelectRange(w); pol.state(math.MinInt) != 1 || lo != math.MinInt {
		t.Errorf("math.MinInt is not in bucket 1's range")
	}
	if _, _, hi := pol.SelectRange(top); pol.state(math.MaxInt) != pol.buckets()+1 || hi != math.MaxInt {
		t.Errorf("math.MaxInt is not in the overflow state's range")
	}
}

// TestGenerateLLMPrioritizedMatchesValueIteration pins the default solver
// to the Jacobi sweep on the token MDP: same fixed point, same greedy policy.
func TestGenerateLLMPrioritizedMatchesValueIteration(t *testing.T) {
	assertJacobiChoices(t, llmChoices(llmTestConfig()))
}

func TestGenerateLLMKVCapOverride(t *testing.T) {
	cfg := llmTestConfig()
	cfg.KVCap = 2048
	pol, err := GenerateLLM(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range pol.Models().Models {
		if m.KVCapTokens != 2048 {
			t.Fatalf("model %s KV cap %d, want 2048", m.Name, m.KVCapTokens)
		}
	}
}

func TestGenerateLLMValidation(t *testing.T) {
	cases := map[string]func(*LLMConfig){
		"no-models":  func(c *LLMConfig) { c.Models = llm.Set{} },
		"bad-slo":    func(c *LLMConfig) { c.SLO = 0 },
		"no-workers": func(c *LLMConfig) { c.Workers = 0 },
		"bad-rate":   func(c *LLMConfig) { c.Rate = -1 },
		"nil-in":     func(c *LLMConfig) { c.In = nil },
		"nil-out":    func(c *LLMConfig) { c.Out = nil },
		"bad-bucket": func(c *LLMConfig) { c.TokenBucket = -1 },
		"bad-max":    func(c *LLMConfig) { c.TokenBucket = 512; c.MaxTokens = 100 },
	}
	for name, mutate := range cases {
		cfg := llmTestConfig()
		mutate(&cfg)
		if _, err := GenerateLLM(cfg); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}
