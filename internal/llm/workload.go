package llm

import (
	"fmt"

	"ramsis/internal/dist"
)

// Class is a servegen-style workload scenario class: a named pair of token
// length distributions for prompt (prefill) and output (decode) lengths.
// cmd/simulate and cmd/serve select one by name to generate token-annotated
// arrivals.
type Class struct {
	Name string
	// In samples prompt token lengths.
	In dist.LengthSampler
	// Out samples output token lengths.
	Out dist.LengthSampler
}

// MeanTokens returns the mean total tokens per query (prefill + decode).
func (c Class) MeanTokens() float64 { return c.In.MeanLen() + c.Out.MeanLen() }

// GeneralClass is the interactive-chat class: short-to-medium prompts,
// medium outputs, both lognormal with heavy right tails.
func GeneralClass() Class {
	return Class{
		Name: "general",
		In:   dist.NewLognormalLen(200, 0.9, 8, 2048),
		Out:  dist.NewLognormalLen(180, 0.7, 16, 1024),
	}
}

// CodegenClass is the code-assistant class: long prompts (repository
// context) with comparatively short completions. Its prefill-heavy
// composition is what makes a codegen burst invisible to a scalar
// queue-length policy: the queue looks short while the outstanding token
// load explodes.
func CodegenClass() Class {
	return Class{
		Name: "codegen",
		In:   dist.NewLognormalLen(1400, 0.6, 64, 4096),
		Out:  dist.NewLognormalLen(220, 0.8, 16, 1024),
	}
}

// ReasoningClass is the long-output class: medium prompts with extended
// chains of generated tokens, given as an empirical bucket histogram (the
// form measured reasoning-trace length distributions arrive in).
func ReasoningClass() Class {
	return Class{
		Name: "reasoning",
		In:   dist.NewLognormalLen(280, 0.7, 32, 2048),
		Out: dist.NewEmpiricalLen([]dist.LenBucket{
			{Lo: 128, Hi: 512, Weight: 0.25},
			{Lo: 513, Hi: 1536, Weight: 0.45},
			{Lo: 1537, Hi: 3072, Weight: 0.30},
		}),
	}
}

// Classes returns every built-in workload class.
func Classes() []Class {
	return []Class{GeneralClass(), CodegenClass(), ReasoningClass()}
}

// ClassByName returns the built-in class with the given name.
func ClassByName(name string) (Class, error) {
	for _, c := range Classes() {
		if c.Name == name {
			return c, nil
		}
	}
	return Class{}, fmt.Errorf("llm: unknown workload class %q (want general, codegen, or reasoning)", name)
}
