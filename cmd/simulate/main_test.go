package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// captureFrom regenerates the output goldens from another build of this
// command instead of comparing against them:
//
//	go test ./cmd/simulate -run TestOutputGolden -capture-from /path/to/simulate
//
// The committed goldens are the raw stdout of the build at the commit before
// the internal/cli refactor, so they pin that refactor (and any later one)
// to digit-identical results.
var captureFrom string

func init() {
	flag.StringVar(&captureFrom, "capture-from", "", "write testdata/*.golden from this simulate binary's stdout")
}

// TestFlagSurface pins every flag's name and default. The golden is
// flag.VisitAll over the pre-refactor binary; a dropped, renamed or
// re-defaulted flag fails here.
func TestFlagSurface(t *testing.T) {
	fs, _ := newFlags(io.Discard)
	var got strings.Builder
	fs.VisitAll(func(f *flag.Flag) { fmt.Fprintf(&got, "%s=%s\n", f.Name, f.DefValue) })
	want, err := os.ReadFile("testdata/flags.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Errorf("flag surface changed:\n--- got\n%s--- want\n%s", got.String(), want)
	}
}

var wallClock = regexp.MustCompile(`\(build [^,]+, solve [^)]+\)`)

// normalize masks the wall-clock durations and sorts the model-usage block
// (printed in map order before internal/cli), so one golden holds across
// both.
func normalize(out string) string {
	lines := strings.Split(wallClock.ReplaceAllString(out, "(build X, solve X)"), "\n")
	for i := 0; i < len(lines); i++ {
		if lines[i] != "model usage (queries):" {
			continue
		}
		j := i + 1
		for j < len(lines) && strings.HasPrefix(lines[j], "  ") {
			j++
		}
		sort.Strings(lines[i+1 : j])
	}
	return strings.Join(lines, "\n")
}

// TestOutputGolden runs each method and mode at a fixed seed on a workload
// small enough to finish in about a second and compares stdout with the
// golden: served, decisions, shed, accuracy, violations, percentiles and
// adaptation counters must all be digit-identical.
func TestOutputGolden(t *testing.T) {
	const small = "-workers 2 -load 40 -dur 2 -d 10"
	const llm = "-workload llm -workers 2 -slo 8000 -load 2 -dur 10 -llm-bucket 128"
	for name, args := range map[string]string{
		"ramsis":     small + " -m RAMSIS",
		"jf":         small + " -m JF",
		"ms":         small + " -m MS",
		"greedy":     small + " -m Greedy",
		"jsq":        small + " -lb jsq",
		"admit":      "-d 10 -dur 2 -workers 4 -load 900 -admit deadline -admit-degrade 5",
		"adapt":      "-workers 2 -load 40 -d 10 -dur 8 -adapt -adapt-dwell 0.5 -adapt-bucket 20 -trace step -step-load 120 -step-at 2 -step-dur 3",
		"tenants":    small + " -tenants testdata/tenants.json -tenant-mult bronze=4",
		"llm-ramsis": llm + " -m RAMSIS",
		"llm-scalar": llm + " -m Scalar",
		"llm-fixed":  llm + " -m Fixed",
	} {
		t.Run(name, func(t *testing.T) {
			golden := filepath.Join("testdata", name+".golden")
			if captureFrom != "" {
				out, err := exec.Command(captureFrom, strings.Fields(args)...).Output()
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(golden, out, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			t.Parallel()
			var out bytes.Buffer
			if err := run(context.Background(), strings.Fields(args), &out); err != nil {
				t.Fatal(err)
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := normalize(out.String()), normalize(string(want)); got != want {
				t.Errorf("simulate %s\n--- got\n%s--- want\n%s", args, got, want)
			}
		})
	}
}

// TestMSTableFromMsgen closes the msgen → simulate round trip: a table
// cmd/msgen writes at the rungs, run length and seed -m MS profiles in
// process (most cells diverging on 30 workers) loads through -ms-table and
// gives the same MS row, digit for digit, as profiling in process.
func TestMSTableFromMsgen(t *testing.T) {
	const row = "-m MS -workers 30 -load 1200 -dur 2"
	dir := t.TempDir()
	gen := exec.Command("go", "run", "ramsis/cmd/msgen", "-workers", "30", "-lo", "400", "-hi", "4400", "-step", "400", "-dur", "5", "-seed", "1", "-out", dir)
	if out, err := gen.CombinedOutput(); err != nil {
		t.Fatalf("%s: %v\n%s", gen, err, out)
	}
	table := filepath.Join(dir, "MS_image_30w_150ms.json")
	results := func(args string) string {
		var out bytes.Buffer
		if err := run(context.Background(), strings.Fields(args), &out); err != nil {
			t.Fatalf("simulate %s: %v", args, err)
		}
		_, after, _ := strings.Cut(out.String(), "\nsimulating ") // drop the loaded / profiling line
		return after
	}
	loaded, profiled := results(row+" -ms-table "+table), results(row)
	if loaded != profiled || !strings.Contains(loaded, "served:") {
		t.Errorf("simulate %s\n--- with msgen's table\n%s--- profiled in process\n%s", row, loaded, profiled)
	}
}

// TestErrorsReturn checks that a bad invocation comes back from run as an
// error naming the offending flag — not a process exit — and before any
// policy is generated.
func TestErrorsReturn(t *testing.T) {
	for flagName, args := range map[string]string{
		"-workload":      "-workload tokens",
		"-admit-degrade": "-m Greedy -workers 2 -load 40 -dur 1 -admit-degrade 3",
		"-tenant-mult":   "-tenant-mult bronze=4",
		"-step-load":     "-trace step",
		"-trace-out":     "-trace-out " + filepath.Join(t.TempDir(), "missing", "traces.jsonl"),
		"-trace":         "-trace sawtooth",
		"-m":             "-m INFaaS -workers 2 -load 40 -dur 1",
		"-adapt":         "-m JF -adapt",
		"-solver":        "-solver pi",
		"-agg-queue":     "-agg-queue 8",
		"-lb":            "-workload llm -lb jsq",
		"-noise":         "-workload llm -m Fixed -noise 10",
	} {
		err := run(context.Background(), strings.Fields(args), io.Discard)
		if err == nil || !strings.Contains(err.Error(), flagName) {
			t.Errorf("simulate %s: error %v, want one naming %s", args, err, flagName)
		}
	}
}

// TestParseMultipliersRejectsNonFinite checks that a -tenant-mult factor of
// NaN or ±Inf is the "bad factor" error, not a multiplier the arrival
// generator panics on.
func TestParseMultipliersRejectsNonFinite(t *testing.T) {
	for _, factor := range []string{"nan", "NaN", "inf", "+Inf", "-inf", "0", "-2"} {
		arg := "bronze=" + factor
		if m, err := parseMultipliers(arg); err == nil || !strings.Contains(err.Error(), "bad factor") {
			t.Errorf("parseMultipliers(%q) = %v, %v; want a bad-factor error", arg, m, err)
		}
	}
	m, err := parseMultipliers("bronze=4,gold=0.5")
	if err != nil || m["bronze"] != 4 || m["gold"] != 0.5 {
		t.Errorf("parseMultipliers(bronze=4,gold=0.5) = %v, %v", m, err)
	}
}
