package core

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"

	"ramsis/internal/profile"
)

// MarshalJSON-compatible persistence: a Policy serializes to JSON with its
// grid and per-state choices (the artifact stores policies as JSON
// state-to-action dictionaries). The state space is reconstructed on load
// from the saved knobs plus the caller-provided model set.

// Save writes the policy as JSON to path, creating parent directories.
func (p *Policy) Save(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(p, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// LoadPolicy reads a policy from path and rebinds it to the given model set
// (which must contain the models the policy references).
func LoadPolicy(path string, models profile.Set) (*Policy, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var p Policy
	if err := json.Unmarshal(data, &p); err != nil {
		return nil, fmt.Errorf("core: decode policy %s: %w", path, err)
	}
	if err := p.bind(models); err != nil {
		return nil, fmt.Errorf("core: policy %s: %w", path, err)
	}
	return &p, nil
}

// bind reconstructs the unexported state space from the serialized fields.
func (p *Policy) bind(models profile.Set) error {
	sp := newSpace(Config{
		Models:          models,
		SLO:             p.SLO,
		Workers:         p.Workers,
		Batching:        p.Batching,
		Disc:            p.Disc,
		D:               p.D,
		MaxQueue:        p.MaxQueue,
		NoParetoPruning: !p.Pruned,
	}.withDefaults())
	sp.grid = p.Grid
	if sp.numStates() != len(p.Choices) {
		return fmt.Errorf("state count %d does not match %d choices", sp.numStates(), len(p.Choices))
	}
	// Re-resolve model indices by name against the bound set.
	for i, c := range p.Choices {
		if c.Arrival {
			continue
		}
		mi := slices.IndexFunc(sp.models.Profiles, func(m profile.Profile) bool { return m.Name == c.Model })
		if mi < 0 {
			return fmt.Errorf("model %q not in bound set", c.Model)
		}
		p.Choices[i].ModelIdx = mi
	}
	p.space = sp
	return nil
}
