package cli

import (
	"errors"
	"io"
	"strings"
	"testing"
)

// TestUnread checks the unread-flag guard: flags the mode does not read are
// an error naming each one set, in name order, under the mode's
// name; flags it reads, and unread flags left at their defaults, are not.
func TestUnread(t *testing.T) {
	for name, tc := range map[string]struct {
		args []string
		want string // "" = no error
	}{
		"none set":       {nil, ""},
		"only read flag": {[]string{"-load", "5"}, ""},
		"one unread":     {[]string{"-lb", "jsq", "-load", "5"}, "-workload llm does not read -lb"},
		"two unread":     {[]string{"-lb", "jsq", "-d", "10"}, "-workload llm does not read -d, -lb"},
	} {
		t.Run(name, func(t *testing.T) {
			fs := NewFlagSet("test")
			fs.String("lb", "rr", "")
			fs.Int("d", 100, "")
			fs.Float64("load", 1, "")
			if _, err := fs.Parse(tc.args); err != nil {
				t.Fatal(err)
			}
			err := fs.Unread("-workload llm", "lb", "d")
			switch {
			case tc.want == "" && err != nil:
				t.Errorf("Unread = %v, want nil", err)
			case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
				t.Errorf("Unread = %v, want %q", err, tc.want)
			}
		})
	}
}

// TestParseRejectsNonFiniteFloats checks that a float flag set to NaN or ±Inf
// is a usage error naming the flag, that a finite value and an unset flag
// pass, and that non-float flags are not screened.
func TestParseRejectsNonFiniteFloats(t *testing.T) {
	for _, tc := range []struct {
		args []string
		bad  string // flag the error must name; "" = no error
	}{
		{[]string{"-load", "nan"}, "-load"},
		{[]string{"-load", "inf"}, "-load"},
		{[]string{"-load", "-inf"}, "-load"},
		{[]string{"-load", "5", "-noise", "NaN"}, "-noise"},
		{[]string{"-load", "2.5"}, ""},
		{[]string{"-name", "nan"}, ""},
		{nil, ""},
	} {
		fs := NewFlagSet("test")
		fs.SetOutput(io.Discard)
		fs.Float64("load", 1, "")
		fs.Float64("noise", 10, "")
		fs.String("name", "", "")
		_, err := fs.Parse(tc.args)
		switch {
		case tc.bad == "" && err != nil:
			t.Errorf("%q: Parse = %v, want nil", tc.args, err)
		case tc.bad != "" && (err == nil || !strings.Contains(err.Error(), tc.bad) || !errors.As(err, new(usageError))):
			t.Errorf("%q: Parse = %v, want a usage error naming %s", tc.args, err, tc.bad)
		}
	}
}

// TestRegisterRejectsNonPositiveLoadAndDur checks that -load and -dur take
// only positive values: zero or a negative value is a usage error naming the
// flag, not a run that panics on a Poisson rate or replays nothing. The same
// holds for -admit-margin, which admit.Deadline would run as 1; and a
// negative -llm-kv-cap, -adapt-bucket or -admit-degrade, which would
// silently fall back to the profile capacities, the band width or no
// degrading, is an error too.
func TestRegisterRejectsNonPositiveLoadAndDur(t *testing.T) {
	for _, tc := range []struct {
		args []string
		bad  string // flag the error must name; "" = no error
	}{
		{[]string{"-load", "-5"}, "-load"},
		{[]string{"-load", "0"}, "-load"},
		{[]string{"-dur", "-3"}, "-dur"},
		{[]string{"-dur", "0"}, "-dur"},
		{[]string{"-load", "x"}, "-load"},
		{[]string{"-load", "inf"}, "-load"},
		{[]string{"-admit-margin", "0"}, "-admit-margin"},
		{[]string{"-admit-margin", "-1"}, "-admit-margin"},
		{[]string{"-admit-margin", "nan"}, "-admit-margin"},
		{[]string{"-llm-kv-cap", "-1"}, "-llm-kv-cap"},
		{[]string{"-llm-kv-cap", "1.5"}, "-llm-kv-cap"},
		{[]string{"-adapt-bucket", "-20"}, "-adapt-bucket"},
		{[]string{"-adapt-bucket", "inf"}, "-adapt-bucket"},
		{[]string{"-admit-degrade", "-3"}, "-admit-degrade"},
		{[]string{"-admit-degrade", "1.5"}, "-admit-degrade"},
		{[]string{"-load", "2.5", "-dur", "7"}, ""},
		{[]string{"-admit-margin", "0.5", "-llm-kv-cap", "0", "-adapt-bucket", "0"}, ""},
		{[]string{"-llm-kv-cap", "3000", "-adapt-bucket", "20", "-admit-degrade", "2"}, ""},
		{nil, ""},
	} {
		fs := NewFlagSet("test")
		fs.SetOutput(io.Discard)
		r := &Run{Load: 120, Dur: 10}
		r.Register(fs)
		_, err := fs.Parse(tc.args)
		switch {
		case tc.bad == "" && err != nil:
			t.Errorf("%q: Parse = %v, want nil", tc.args, err)
		case tc.bad != "" && (err == nil || !strings.Contains(err.Error(), tc.bad) || !errors.As(err, new(usageError))):
			t.Errorf("%q: Parse = %v, want a usage error naming %s", tc.args, err, tc.bad)
		}
	}
	r := &Run{Load: 120, Dur: 10}
	fs := NewFlagSet("test")
	r.Register(fs)
	if _, err := fs.Parse([]string{"-load", "2.5", "-dur", "7"}); err != nil || r.Load != 2.5 || r.Dur != 7 {
		t.Errorf("Parse = %v: load %v, dur %v; want 2.5 and 7", err, r.Load, r.Dur)
	}
	if got := fs.Lookup("load").DefValue; got != "120" {
		t.Errorf("-load default %q, want 120", got)
	}
	if r.AdmitMargin != 1 {
		t.Errorf("-admit-margin default %v, want 1", r.AdmitMargin)
	}
}
