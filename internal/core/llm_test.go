package core

import (
	"errors"
	"math"
	"testing"
	"time"

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
		"bad-gamma":  func(c *LLMConfig) { c.Gamma = 1.5 },
		"nan-gamma":  func(c *LLMConfig) { c.Gamma = math.NaN() },
		"neg-floor":  func(c *LLMConfig) { c.ProbFloor = -1e-10 },
		"nan-floor":  func(c *LLMConfig) { c.ProbFloor = math.NaN() },
		"unit-floor": func(c *LLMConfig) { c.ProbFloor = 1 },
	}
	for name, mutate := range cases {
		cfg := llmTestConfig()
		mutate(&cfg)
		if _, err := GenerateLLM(cfg); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestGenerateLLMTimeout(t *testing.T) {
	cfg := llmTestConfig()
	// The deadline is armed on entry, so a nanosecond budget is spent before
	// the first state builds.
	cfg.Timeout = time.Nanosecond
	if _, err := GenerateLLM(cfg); !errors.Is(err, ErrTimeout) {
		t.Fatalf("GenerateLLM with a 1ns budget returned %v, want ErrTimeout", err)
	}
	// A budget that outlasts entry but not the build (10–20 ms for a bench
	// class on one or two cores) stops the build itself: the solver never
	// starts.
	cfg = benchLLMConfig(llm.GeneralClass())
	cfg.Timeout = 2 * time.Millisecond
	if _, err := buildLLM(cfg); !errors.Is(err, ErrTimeout) {
		t.Fatalf("buildLLM with a 2ms budget returned %v, want ErrTimeout", err)
	}
	if _, err := GenerateLLM(cfg); !errors.Is(err, ErrTimeout) {
		t.Fatalf("GenerateLLM with a 2ms budget returned %v, want ErrTimeout", err)
	}
}
