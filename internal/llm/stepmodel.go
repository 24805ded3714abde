// Package llm is the token-level workload subsystem: the second profile
// kind next to internal/profile's per-(model, batch) scalar tables. An LLM
// serving step's latency is not a function of batch size alone — it depends
// on the batch's prefill/decode token composition and on KV-cache occupancy
// (the BLIS latency-model breakdown). StepModel captures that as a linear
// step-time baseline
//
//	step_time = β₀ + β₁·prefill_tokens + β₂·decode_tokens + β₃·kvPenalty(kv)
//
// with per-model coefficients, the same blackbox feature set a vLLM
// instrumentation exposes (batch.prefill_tokens, batch.decode_tokens,
// kv.usage_gpu_ratio). The simulator's continuous-batching worker
// (internal/sim), the token-bucket MDP (internal/core.GenerateLLM), and the
// streaming serve worker all consume these models; scalar-profile code
// paths never see them (profile/io rejects llm-kind files).
package llm

import (
	"fmt"
	"math"

	"ramsis/internal/profile"
)

// DefaultMaxStepTokens is the per-step scheduled-token budget when a model
// doesn't override it, matching the common max_num_batched_tokens=2048
// continuous-batching configuration.
const DefaultMaxStepTokens = 2048

// KVPenalty maps KV-cache usage (a fraction in [0, 1]) to the unitless
// occupancy penalty β₃ multiplies: kv². Attention cost grows superlinearly
// with resident context, so a near-full cache slows every step, not just
// the sequences that filled it.
func KVPenalty(kv float64) float64 {
	if kv < 0 {
		kv = 0
	}
	if kv > 1 {
		kv = 1
	}
	return kv * kv
}

// StepModel is one model's token-level latency profile plus its serving
// limits. All coefficients are in seconds (per token for the β₁/β₂ terms).
type StepModel struct {
	Name     string  `json:"name"`
	Accuracy float64 `json:"accuracy"`
	// Beta0 is the fixed per-step overhead (scheduling, kernel launch).
	Beta0 float64 `json:"beta0"`
	// BetaPrefill is the marginal cost per prefill token in the step.
	BetaPrefill float64 `json:"betaPrefill"`
	// BetaDecode is the marginal cost per decode token in the step.
	BetaDecode float64 `json:"betaDecode"`
	// BetaKV is the full-occupancy KV penalty: a step at kv=1 costs
	// BetaKV·KVPenalty(1) = BetaKV more than at kv=0.
	BetaKV float64 `json:"betaKV"`
	// KVCapTokens is the KV-cache capacity in tokens; admission into the
	// running batch reserves a sequence's full prefill+decode footprint
	// against it.
	KVCapTokens int `json:"kvCapTokens"`
	// MaxStepTokens bounds the scheduled tokens (prefill chunks + decode)
	// per step; 0 means DefaultMaxStepTokens.
	MaxStepTokens int `json:"maxStepTokens"`
	// MaxSeqs bounds the running batch's sequence count.
	MaxSeqs int `json:"maxSeqs"`
}

// StepTime returns the modeled latency in seconds of one engine step that
// ingests prefillTokens prompt tokens and generates decodeTokens output
// tokens at KV-cache usage kv (fraction of KVCapTokens resident).
func (m *StepModel) StepTime(prefillTokens, decodeTokens int, kv float64) float64 {
	return m.Beta0 +
		m.BetaPrefill*float64(prefillTokens) +
		m.BetaDecode*float64(decodeTokens) +
		m.BetaKV*KVPenalty(kv)
}

// StepBudget returns the per-step scheduled-token budget.
func (m *StepModel) StepBudget() int {
	if m.MaxStepTokens > 0 {
		return m.MaxStepTokens
	}
	return DefaultMaxStepTokens
}

// TokenRate returns the modeled sustained token throughput (tokens/second)
// of a saturated step whose scheduled tokens are prefillFrac prefill: the
// step packs round(prefillFrac·budget) prefill tokens, fills the remainder
// with decode tokens up to MaxSeqs, and runs at KV usage kv. This is the
// model's position on the throughput axis of the accuracy/throughput
// Pareto front.
func (m StepModel) TokenRate(prefillFrac, kv float64) float64 {
	if prefillFrac < 0 {
		prefillFrac = 0
	}
	if prefillFrac > 1 {
		prefillFrac = 1
	}
	budget := m.StepBudget()
	p := int(math.Round(prefillFrac * float64(budget)))
	d := budget - p
	if d > m.MaxSeqs {
		d = m.MaxSeqs
	}
	if p+d == 0 {
		return 0
	}
	return float64(p+d) / m.StepTime(p, d, kv)
}

// Validate reports coefficient errors.
func (m StepModel) Validate() error {
	if m.Name == "" {
		return fmt.Errorf("llm: unnamed step model")
	}
	if !(m.Accuracy > 0 && m.Accuracy <= 1) {
		return fmt.Errorf("llm: model %q accuracy %v outside (0, 1]", m.Name, m.Accuracy)
	}
	if !(m.Beta0 > 0) || m.BetaPrefill < 0 || m.BetaDecode < 0 || m.BetaKV < 0 {
		return fmt.Errorf("llm: model %q has invalid step-time coefficients (β₀=%v β₁=%v β₂=%v β₃=%v)",
			m.Name, m.Beta0, m.BetaPrefill, m.BetaDecode, m.BetaKV)
	}
	if m.BetaPrefill == 0 && m.BetaDecode == 0 {
		return fmt.Errorf("llm: model %q has no per-token cost", m.Name)
	}
	if m.KVCapTokens < 1 {
		return fmt.Errorf("llm: model %q KV capacity %d tokens not positive", m.Name, m.KVCapTokens)
	}
	if m.MaxStepTokens < 0 {
		return fmt.Errorf("llm: model %q negative step budget %d", m.Name, m.MaxStepTokens)
	}
	if m.MaxSeqs < 1 {
		return fmt.Errorf("llm: model %q max sequence count %d not positive", m.Name, m.MaxSeqs)
	}
	return nil
}

// Set is a corpus of step models available on a worker for one task.
type Set struct {
	Task   string      `json:"task"`
	Models []StepModel `json:"models"`
}

// Len returns the number of models.
func (s Set) Len() int { return len(s.Models) }

// Validate reports the first invalid model, and duplicate names.
func (s Set) Validate() error {
	if s.Len() == 0 {
		return fmt.Errorf("llm: empty step-model set")
	}
	seen := map[string]bool{}
	for _, m := range s.Models {
		if err := m.Validate(); err != nil {
			return err
		}
		if seen[m.Name] {
			return fmt.Errorf("llm: duplicate model name %q", m.Name)
		}
		seen[m.Name] = true
	}
	return nil
}

// ByName returns the step model with the given name.
func (s Set) ByName(name string) (StepModel, bool) {
	for _, m := range s.Models {
		if m.Name == name {
			return m, true
		}
	}
	return StepModel{}, false
}

// IndexByName returns the index of the named model, or -1.
func (s Set) IndexByName(name string) int {
	for i, m := range s.Models {
		if m.Name == name {
			return i
		}
	}
	return -1
}

// Fastest returns the index of the highest-throughput model at a balanced
// mixed composition (the forced choice when no model can clear the backlog
// within the SLO).
func (s Set) Fastest() int {
	if s.Len() == 0 {
		panic("llm: Fastest on empty set")
	}
	best, bestRate := 0, math.Inf(-1)
	for i, m := range s.Models {
		if r := m.TokenRate(0.5, 0.5); r > bestRate {
			best, bestRate = i, r
		}
	}
	return best
}

// MostAccurate returns the index of the highest-accuracy model.
func (s Set) MostAccurate() int {
	if s.Len() == 0 {
		panic("llm: MostAccurate on empty set")
	}
	best := 0
	for i, m := range s.Models {
		if m.Accuracy > s.Models[best].Accuracy {
			best = i
		}
	}
	return best
}

// ParetoFront returns the models on the accuracy/token-throughput Pareto
// front: every model for which no other model has both higher-or-equal
// throughput (at a balanced mixed composition) and strictly higher accuracy
// (nor equal accuracy at strictly higher throughput). Policy generation
// prunes the action space to this front, mirroring the scalar path.
func (s Set) ParetoFront() Set {
	out := Set{Task: s.Task}
	for i, m := range s.Models {
		ri := m.TokenRate(0.5, 0.5)
		dominated := false
		for j, o := range s.Models {
			if i == j {
				continue
			}
			rj := o.TokenRate(0.5, 0.5)
			if (rj >= ri && o.Accuracy > m.Accuracy) || (rj > ri && o.Accuracy == m.Accuracy) {
				dominated = true
				break
			}
		}
		if !dominated {
			out.Models = append(out.Models, m)
		}
	}
	return out
}

// WithKVCap returns a copy with every model's KV capacity overridden to cap
// tokens (the -llm-kv-cap knob). cap <= 0 returns the set unchanged.
func (s Set) WithKVCap(cap int) Set {
	if cap <= 0 {
		return s
	}
	out := Set{Task: s.Task, Models: append([]StepModel(nil), s.Models...)}
	for i := range out.Models {
		out.Models[i].KVCapTokens = cap
	}
	return out
}

// ScalarProfiles flattens the step models into scalar per-(model, batch)
// latency tables — the view a profile-table-only system has of an LLM
// workload. A batch of b queries averaging meanIn prompt and meanOut output
// tokens is costed as b·(meanIn+meanOut) tokens drained at the model's
// sustained mixed-composition token rate, plus the per-step overhead. The
// resulting Set feeds core.Generate unchanged and is the scalar baseline
// the token-aware policy is compared against: it preserves each model's
// mean throughput and the set's Pareto ordering but cannot see token-level
// state (a long-prefill burst looks like any other n-query queue).
func (s Set) ScalarProfiles(meanIn, meanOut float64, maxBatch int) profile.Set {
	if maxBatch <= 0 {
		maxBatch = profile.MaxSupportedBatch
	}
	perQuery := meanIn + meanOut
	if !(perQuery > 0) {
		panic(fmt.Sprintf("llm: invalid mean token lengths (%v in, %v out)", meanIn, meanOut))
	}
	frac := meanIn / perQuery
	out := profile.Set{Task: s.Task}
	for _, m := range s.Models {
		rate := m.TokenRate(frac, 0.5)
		lat := make([]float64, maxBatch)
		for b := 1; b <= maxBatch; b++ {
			lat[b-1] = m.Beta0 + float64(b)*perQuery/rate
		}
		out.Profiles = append(out.Profiles, profile.Profile{
			Model:   profile.Model{Name: m.Name, Accuracy: m.Accuracy},
			Latency: lat,
		})
	}
	return out
}

// BuiltinSet returns the built-in three-model chat corpus, calibrated so
// all three land on the accuracy/throughput Pareto front (selection is
// non-trivial): an 8B-class draft model, a 34B-class workhorse, and a
// 72B-class flagship. Throughput falls and accuracy rises with scale;
// KV capacity shrinks with scale because weights crowd out cache.
func BuiltinSet() Set {
	return Set{Task: "chat", Models: []StepModel{
		{
			Name: "chat-8b", Accuracy: 0.62,
			Beta0: 0.006, BetaPrefill: 60e-6, BetaDecode: 100e-6, BetaKV: 0.008,
			KVCapTokens: 16384, MaxStepTokens: 2048, MaxSeqs: 64,
		},
		{
			Name: "chat-34b", Accuracy: 0.70,
			Beta0: 0.015, BetaPrefill: 180e-6, BetaDecode: 250e-6, BetaKV: 0.018,
			KVCapTokens: 10240, MaxStepTokens: 2048, MaxSeqs: 48,
		},
		{
			Name: "chat-72b", Accuracy: 0.77,
			Beta0: 0.030, BetaPrefill: 400e-6, BetaDecode: 600e-6, BetaKV: 0.035,
			KVCapTokens: 6144, MaxStepTokens: 2048, MaxSeqs: 32,
		},
	}}
}
