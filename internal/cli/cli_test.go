package cli

import (
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
