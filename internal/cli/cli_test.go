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
