package llm

import (
	"math"
	"strings"
	"testing"
)

func TestStepTimeLinearForm(t *testing.T) {
	m := StepModel{
		Name: "m", Accuracy: 0.7,
		Beta0: 0.010, BetaPrefill: 1e-4, BetaDecode: 5e-4, BetaKV: 0.020,
		KVCapTokens: 4096, MaxStepTokens: 2048, MaxSeqs: 32,
	}
	got := m.StepTime(1000, 16, 0.5)
	want := 0.010 + 1e-4*1000 + 5e-4*16 + 0.020*0.25
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("StepTime = %v, want %v", got, want)
	}
	if m.StepTime(0, 0, 0) != m.Beta0 {
		t.Fatalf("empty step should cost β₀, got %v", m.StepTime(0, 0, 0))
	}
}

func TestStepTimeMonotone(t *testing.T) {
	m := BuiltinSet().Models[0]
	if m.StepTime(100, 10, 0.5) >= m.StepTime(200, 10, 0.5) {
		t.Error("step time not increasing in prefill tokens")
	}
	if m.StepTime(100, 10, 0.5) >= m.StepTime(100, 20, 0.5) {
		t.Error("step time not increasing in decode tokens")
	}
	if m.StepTime(100, 10, 0.2) >= m.StepTime(100, 10, 0.9) {
		t.Error("step time not increasing in KV usage")
	}
}

func TestKVPenaltyClampedAndSuperlinear(t *testing.T) {
	if KVPenalty(-1) != 0 || KVPenalty(2) != 1 {
		t.Fatalf("KVPenalty not clamped: %v, %v", KVPenalty(-1), KVPenalty(2))
	}
	if !(KVPenalty(0.5) < 0.5) {
		t.Fatalf("KVPenalty(0.5) = %v, want < 0.5 (superlinear)", KVPenalty(0.5))
	}
}

func TestBuiltinSetSpansParetoFront(t *testing.T) {
	s := BuiltinSet()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	front := s.ParetoFront()
	if front.Len() != s.Len() {
		t.Fatalf("built-in set has %d models on the Pareto front, want all %d (selection must be non-trivial)",
			front.Len(), s.Len())
	}
	// The front must actually trade off: throughput strictly falls as
	// accuracy strictly rises.
	for i := 1; i < s.Len(); i++ {
		prev, cur := s.Models[i-1], s.Models[i]
		if !(cur.Accuracy > prev.Accuracy) {
			t.Errorf("accuracy not increasing: %s %.2f -> %s %.2f", prev.Name, prev.Accuracy, cur.Name, cur.Accuracy)
		}
		if !(cur.TokenRate(0.5, 0.5) < prev.TokenRate(0.5, 0.5)) {
			t.Errorf("throughput not decreasing: %s %.0f -> %s %.0f tok/s",
				prev.Name, prev.TokenRate(0.5, 0.5), cur.Name, cur.TokenRate(0.5, 0.5))
		}
	}
	if f := s.Fastest(); f != 0 {
		t.Errorf("Fastest = %d, want 0", f)
	}
	if a := s.MostAccurate(); a != s.Len()-1 {
		t.Errorf("MostAccurate = %d, want %d", a, s.Len()-1)
	}
}

func TestParetoFrontDropsDominated(t *testing.T) {
	s := BuiltinSet()
	dominated := s.Models[0]
	dominated.Name = "chat-8b-worse"
	dominated.Accuracy = s.Models[0].Accuracy - 0.05
	dominated.Beta0 *= 2
	s.Models = append(s.Models, dominated)
	front := s.ParetoFront()
	if front.IndexByName("chat-8b-worse") != -1 {
		t.Fatal("dominated model survived Pareto pruning")
	}
	if front.Len() != 3 {
		t.Fatalf("front has %d models, want 3", front.Len())
	}
}

func TestWithKVCapOverrides(t *testing.T) {
	s := BuiltinSet().WithKVCap(2048)
	for _, m := range s.Models {
		if m.KVCapTokens != 2048 {
			t.Fatalf("model %s KV cap %d, want 2048", m.Name, m.KVCapTokens)
		}
	}
	orig := BuiltinSet()
	if orig.Models[0].KVCapTokens == 2048 {
		t.Fatal("WithKVCap mutated the source set")
	}
	if got := orig.WithKVCap(0); got.Models[0].KVCapTokens != orig.Models[0].KVCapTokens {
		t.Fatal("WithKVCap(0) should be a no-op")
	}
}

func TestScalarProfilesPreserveNamesAndOrdering(t *testing.T) {
	s := BuiltinSet()
	ps := s.ScalarProfiles(300, 230, 32)
	if ps.Len() != s.Len() {
		t.Fatalf("scalar set has %d models, want %d", ps.Len(), s.Len())
	}
	for i, p := range ps.Profiles {
		m := s.Models[i]
		if p.Name != m.Name || p.Accuracy != m.Accuracy {
			t.Fatalf("profile %d = %s/%.2f, want %s/%.2f", i, p.Name, p.Accuracy, m.Name, m.Accuracy)
		}
		if p.MaxBatch() != 32 {
			t.Fatalf("profile %s max batch %d, want 32", p.Name, p.MaxBatch())
		}
		// Affine in batch size with positive slope.
		d1 := p.BatchLatency(2) - p.BatchLatency(1)
		d2 := p.BatchLatency(3) - p.BatchLatency(2)
		if !(d1 > 0) || math.Abs(d1-d2) > 1e-12 {
			t.Fatalf("profile %s not affine: deltas %v, %v", p.Name, d1, d2)
		}
	}
	// The flattened view keeps the speed ordering: bigger models are
	// slower per batch.
	for i := 1; i < ps.Len(); i++ {
		if !(ps.Profiles[i].BatchLatency(8) > ps.Profiles[i-1].BatchLatency(8)) {
			t.Fatalf("scalar latency not increasing with model scale at %s", ps.Profiles[i].Name)
		}
	}
}

func TestStepModelValidation(t *testing.T) {
	base := BuiltinSet().Models[0]
	cases := map[string]func(*StepModel){
		"unnamed":       func(m *StepModel) { m.Name = "" },
		"accuracy":      func(m *StepModel) { m.Accuracy = 1.5 },
		"beta0":         func(m *StepModel) { m.Beta0 = 0 },
		"negative-beta": func(m *StepModel) { m.BetaDecode = -1 },
		"no-token-cost": func(m *StepModel) { m.BetaPrefill = 0; m.BetaDecode = 0 },
		"kv-cap":        func(m *StepModel) { m.KVCapTokens = 0 },
		"max-seqs":      func(m *StepModel) { m.MaxSeqs = 0 },
	}
	for name, mutate := range cases {
		m := base
		mutate(&m)
		if err := m.Validate(); err == nil {
			t.Errorf("%s: expected validation error", name)
		}
	}
	dup := BuiltinSet()
	dup.Models = append(dup.Models, dup.Models[0])
	if err := dup.Validate(); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Errorf("duplicate names: got %v", err)
	}
}

func TestClasses(t *testing.T) {
	for _, c := range Classes() {
		if c.In == nil || c.Out == nil {
			t.Fatalf("class %s has nil samplers", c.Name)
		}
		got, err := ClassByName(c.Name)
		if err != nil || got.Name != c.Name {
			t.Fatalf("ClassByName(%s) = %v, %v", c.Name, got.Name, err)
		}
	}
	if _, err := ClassByName("nope"); err == nil {
		t.Fatal("expected error for unknown class")
	}
	// Codegen is the prefill-heavy class; general is balanced. The gap is
	// what the token-aware policy exploits.
	prefill := func(c Class) float64 { return c.In.MeanLen() / c.MeanTokens() }
	if !(prefill(CodegenClass()) > prefill(GeneralClass())+0.2) {
		t.Fatalf("codegen prefill fraction %.2f not clearly above general %.2f",
			prefill(CodegenClass()), prefill(GeneralClass()))
	}
}
