package core

import (
	"reflect"
	"slices"
	"testing"
)

// TestConfigSurface pins the exported fields of the two generation configs,
// as cmd/*'s TestFlagSurface pins their flags: a new generation knob, or one
// that leaves, is a deliberate edit to this list. Every field here has a
// caller outside the package's tests.
func TestConfigSurface(t *testing.T) {
	for _, tc := range []struct {
		cfg  any
		want []string
	}{
		{Config{}, []string{
			"Models", "SLO", "Workers", "Arrival",
			"Batching", "Disc", "D", "MaxQueue", "NoParetoPruning",
			"Gamma", "ProbFloor", "FineCells", "Balancing", "Timeout",
			"InitialValues",
		}},
		{LLMConfig{}, []string{
			"Models", "SLO", "Workers", "Rate", "In", "Out",
			"TokenBucket", "MaxTokens", "KVCap",
		}},
	} {
		typ := reflect.TypeOf(tc.cfg)
		var got []string
		for i := 0; i < typ.NumField(); i++ {
			if f := typ.Field(i); f.IsExported() {
				got = append(got, f.Name)
			}
		}
		if !slices.Equal(got, tc.want) {
			t.Errorf("%s fields changed:\n got  %q\n want %q", typ.Name(), got, tc.want)
		}
	}
}
