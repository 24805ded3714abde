package tenant

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func threeTenants() []Tenant {
	return []Tenant{
		{Name: "interactive", Class: "interactive", SLOMS: 200, Weight: 2, RateQPS: 100},
		{Name: "standard", Class: "standard", SLOMS: 500, Weight: 1, RateQPS: 50},
		{Name: "batch", Class: "batch", SLOMS: 2000, Weight: 1, RateQPS: 50},
	}
}

func TestValidate(t *testing.T) {
	cases := []struct {
		name string
		ts   []Tenant
		want string // substring of the error, "" for valid
	}{
		{"valid", threeTenants(), ""},
		{"empty set", nil, "empty tenant set"},
		{"empty name", []Tenant{{SLOMS: 100, Weight: 1, RateQPS: 1}}, "empty name"},
		{"zero slo", []Tenant{{Name: "a", Weight: 1, RateQPS: 1}}, "sloMs"},
		{"negative weight", []Tenant{{Name: "a", SLOMS: 100, Weight: -1, RateQPS: 1}}, "weight"},
		{"zero rate", []Tenant{{Name: "a", SLOMS: 100, Weight: 1}}, "rateQps"},
		{"negative burst", []Tenant{{Name: "a", SLOMS: 100, Weight: 1, RateQPS: 1, BurstSec: -2}}, "burstSec"},
		{"duplicate", []Tenant{
			{Name: "a", SLOMS: 100, Weight: 1, RateQPS: 1},
			{Name: "a", SLOMS: 200, Weight: 1, RateQPS: 1},
		}, "duplicate"},
	}
	for _, c := range cases {
		err := Validate(c.ts)
		if c.want == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", c.name, err)
			}
		} else if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %v, want substring %q", c.name, err, c.want)
		}
	}
}

func TestParseForms(t *testing.T) {
	bare := `[{"name":"a","sloMs":100,"weight":1,"rateQps":10}]`
	wrapped := `{"tenants":[{"name":"a","sloMs":100,"weight":1,"rateQps":10}]}`
	for _, src := range []string{bare, wrapped} {
		ts, err := Parse([]byte(src))
		if err != nil {
			t.Fatalf("Parse(%s): %v", src, err)
		}
		if len(ts) != 1 || ts[0].Name != "a" || ts[0].SLO() != 0.1 {
			t.Errorf("Parse(%s) = %+v", src, ts)
		}
	}
	if _, err := Parse([]byte(`{"tenants":`)); err == nil {
		t.Error("truncated JSON accepted")
	}
	if _, err := Parse([]byte(`[{"name":"a","sloMs":100,"weight":1}]`)); err == nil {
		t.Error("invalid tenant accepted")
	}
}

func TestRegistryLookupAndTotals(t *testing.T) {
	r, err := NewRegistry(threeTenants())
	if err != nil {
		t.Fatal(err)
	}
	if got := r.TotalRate(); got != 200 {
		t.Errorf("TotalRate = %v, want 200", got)
	}
	if tn, ok := r.Lookup("standard"); !ok || tn.SLO() != 0.5 {
		t.Errorf("Lookup(standard) = %+v, %v", tn, ok)
	}
	if _, ok := r.Lookup("nope"); ok {
		t.Error("Lookup(nope) found a tenant")
	}
}

func TestResolveDefault(t *testing.T) {
	r, err := NewRegistry([]Tenant{{Name: DefaultName, SLOMS: 200, Weight: 1, RateQPS: 100}})
	if err != nil {
		t.Fatal(err)
	}
	if tn, ok := r.Resolve(""); !ok || tn.Name != DefaultName || tn.SLO() != 0.2 {
		t.Errorf("Resolve(\"\") = %+v, %v", tn, ok)
	}
	multi, _ := NewRegistry(threeTenants())
	if _, ok := multi.Resolve(""); ok {
		t.Error("Resolve(\"\") succeeded without a registered default tenant")
	}
}

func TestReloadVersions(t *testing.T) {
	r, err := NewRegistry(threeTenants())
	if err != nil {
		t.Fatal(err)
	}
	if v := r.Version(); v != 1 {
		t.Fatalf("initial version = %d, want 1", v)
	}
	ts := threeTenants()
	ts[0].Weight = 5
	if err := r.Reload(ts); err != nil {
		t.Fatal(err)
	}
	if v := r.Version(); v != 2 {
		t.Errorf("version after reload = %d, want 2", v)
	}
	if tn, _ := r.Lookup("interactive"); tn.Weight != 5 {
		t.Errorf("reload not visible: weight = %v", tn.Weight)
	}
	// An invalid reload must leave the previous set live.
	if err := r.Reload(nil); err == nil {
		t.Fatal("invalid reload accepted")
	}
	if v := r.Version(); v != 2 {
		t.Errorf("failed reload bumped version to %d", v)
	}
}

func TestLoadAndReloadFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "tenants.json")
	if err := os.WriteFile(path, []byte(`[{"name":"a","sloMs":100,"weight":1,"rateQps":10}]`), 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := r.Lookup("a"); !ok {
		t.Fatal("loaded tenant missing")
	}
	if err := os.WriteFile(path, []byte(`[{"name":"b","sloMs":100,"weight":1,"rateQps":10}]`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := r.ReloadFile(path); err != nil {
		t.Fatal(err)
	}
	if _, ok := r.Lookup("b"); !ok {
		t.Error("reloaded tenant missing")
	}
	if err := r.ReloadFile(filepath.Join(dir, "missing.json")); err == nil {
		t.Error("missing file reload accepted")
	}
	if _, err := LoadFile(filepath.Join(dir, "missing.json")); err == nil {
		t.Error("LoadFile on missing path accepted")
	}
}
