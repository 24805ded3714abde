package profile

import (
	"encoding/json"
	"fmt"
	"os"
)

// Single-file kinded profile format: a profile corpus round-trips as one
// JSON document whose "kind" field names the profile family. Two kinds
// exist: "scalar" is this package's per-(model, batch) latency tables,
// "llm" is internal/llm's token-level step-time coefficient tables. Each
// loader rejects the other kind with a pointed error, so a step-time profile
// can never silently feed the scalar l_w(m,b) solve path (or vice versa).
const (
	// KindScalar marks a per-(model, batch) latency-table profile file.
	KindScalar = "scalar"
	// KindLLM marks a token-level step-time profile file (internal/llm).
	KindLLM = "llm"
)

// FileKind sniffs the kind of a single-file profile document. A document
// with no kind field is treated as KindScalar (the original format predates
// the field).
func FileKind(data []byte) string {
	var head struct {
		Kind string `json:"kind"`
	}
	if err := json.Unmarshal(data, &head); err != nil || head.Kind == "" {
		return KindScalar
	}
	return head.Kind
}

// setFile is the scalar kind's wire form.
type setFile struct {
	Kind     string        `json:"kind"`
	Task     string        `json:"task"`
	Profiles []profileFile `json:"profiles"`
}

type profileFile struct {
	Name     string    `json:"name"`
	Accuracy float64   `json:"accuracy"`
	Latency  []float64 `json:"latency"`
}

// MarshalSet encodes the set as a kinded single-file JSON document.
func MarshalSet(s Set) ([]byte, error) {
	out := setFile{Kind: KindScalar, Task: s.Task, Profiles: make([]profileFile, 0, s.Len())}
	for _, p := range s.Profiles {
		out.Profiles = append(out.Profiles, profileFile{Name: p.Name, Accuracy: p.Accuracy, Latency: p.Latency})
	}
	return json.MarshalIndent(out, "", " ")
}

// SaveFile writes the set as a kinded single-file JSON document.
func (s Set) SaveFile(path string) error {
	data, err := MarshalSet(s)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// LoadSet decodes a kinded single-file profile document into a scalar Set.
// An llm-kind document is rejected: its step-time coefficients are not
// batch-latency tables, and consuming them here would hand the scalar MDP
// garbage profiles.
func LoadSet(data []byte) (Set, error) {
	if kind := FileKind(data); kind != KindScalar {
		if kind == KindLLM {
			return Set{}, fmt.Errorf("profile: file holds an %q step-time profile, not scalar batch-latency tables; load it with llm.LoadSetFile (or pass it via -llm-profile)", kind)
		}
		return Set{}, fmt.Errorf("profile: unknown profile kind %q (want %q or %q)", kind, KindScalar, KindLLM)
	}
	var sf setFile
	if err := json.Unmarshal(data, &sf); err != nil {
		return Set{}, fmt.Errorf("profile: %w", err)
	}
	out := Set{Task: sf.Task}
	for _, p := range sf.Profiles {
		if p.Name == "" {
			return Set{}, fmt.Errorf("profile: unnamed model in profile file")
		}
		if len(p.Latency) == 0 {
			return Set{}, fmt.Errorf("profile: model %q has no latency table", p.Name)
		}
		for b, l := range p.Latency {
			if !(l > 0) {
				return Set{}, fmt.Errorf("profile: model %q batch %d latency %v not positive", p.Name, b+1, l)
			}
		}
		if !(p.Accuracy > 0 && p.Accuracy <= 1) {
			return Set{}, fmt.Errorf("profile: model %q accuracy %v outside (0, 1]", p.Name, p.Accuracy)
		}
		out.Profiles = append(out.Profiles, Profile{Model: Model{Name: p.Name, Accuracy: p.Accuracy}, Latency: p.Latency})
	}
	if out.Len() == 0 {
		return Set{}, fmt.Errorf("profile: profile file holds no models")
	}
	return out, nil
}

// LoadSetFile reads a kinded single-file profile document from path.
func LoadSetFile(path string) (Set, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Set{}, err
	}
	s, err := LoadSet(data)
	if err != nil {
		return Set{}, fmt.Errorf("%w (file %s)", err, path)
	}
	return s, nil
}
