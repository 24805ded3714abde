package trace

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestQPSFileRoundTrip(t *testing.T) {
	tr := Twitter()
	path := filepath.Join(t.TempDir(), "twitter.txt")
	if err := tr.SaveQPSFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadQPSFile(path, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.QPS) != len(tr.QPS) {
		t.Fatalf("loaded %d intervals, want %d", len(got.QPS), len(tr.QPS))
	}
	for i := range tr.QPS {
		if got.QPS[i] != tr.QPS[i] {
			t.Fatalf("interval %d: %v != %v", i, got.QPS[i], tr.QPS[i])
		}
	}
	if got.IntervalSec != 10 {
		t.Errorf("interval = %v", got.IntervalSec)
	}
}

func TestLoadQPSFileCommentsAndBlank(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.txt")
	content := "# twitter trace\n1617\n\n2000.5\n# done\n3905\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	tr, err := LoadQPSFile(path, 0) // 0 defaults to 10s intervals
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1617, 2000.5, 3905}
	if len(tr.QPS) != 3 {
		t.Fatalf("got %v", tr.QPS)
	}
	for i := range want {
		if tr.QPS[i] != want[i] {
			t.Fatalf("got %v, want %v", tr.QPS, want)
		}
	}
	if tr.IntervalSec != 10 {
		t.Errorf("default interval = %v, want 10", tr.IntervalSec)
	}
}

func TestLoadQPSFileErrors(t *testing.T) {
	dir := t.TempDir()
	if _, err := LoadQPSFile(filepath.Join(dir, "missing.txt"), 10); err == nil {
		t.Error("missing file accepted")
	}
	bad := filepath.Join(dir, "bad.txt")
	os.WriteFile(bad, []byte("100\nnot-a-number\n"), 0o644)
	if _, err := LoadQPSFile(bad, 10); err == nil {
		t.Error("malformed line accepted")
	}
	neg := filepath.Join(dir, "neg.txt")
	os.WriteFile(neg, []byte("-5\n"), 0o644)
	if _, err := LoadQPSFile(neg, 10); err == nil {
		t.Error("negative load accepted")
	}
	empty := filepath.Join(dir, "empty.txt")
	os.WriteFile(empty, []byte("# nothing\n"), 0o644)
	if _, err := LoadQPSFile(empty, 10); err == nil {
		t.Error("empty trace accepted")
	}
}

// TestLoadQPSFileRejectsNonFinite: strconv.ParseFloat reads "nan" and
// "inf", which no rate sampler or summary can take; each is rejected with
// its file and line, like a negative load.
func TestLoadQPSFileRejectsNonFinite(t *testing.T) {
	dir := t.TempDir()
	for i, v := range []string{"nan", "inf", "+Inf", "-Inf", "NaN"} {
		path := filepath.Join(dir, fmt.Sprintf("f%d.txt", i))
		os.WriteFile(path, []byte("100\n"+v+"\n"), 0o644)
		tr, err := LoadQPSFile(path, 10)
		if err == nil {
			t.Errorf("%q accepted: %v", v, tr.QPS)
			continue
		}
		if want := fmt.Sprintf("%s:2:", path); !strings.Contains(err.Error(), want) {
			t.Errorf("%q: error %q does not name %s", v, err, want)
		}
	}
}
