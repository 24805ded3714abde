// Command ramsisbench runs one workload of the repository benchmark and
// prints its metrics; see ../../README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"

	"ramsis/bench"
)

// runAA re-runs this binary per workload and seed and prints the comparison
// as JSON on standard output and as a table on standard error. ok is false
// when a median gap or a spread exceeds its bound.
func runAA(workload string, n int, seconds float64, specPath string) (ok bool, err error) {
	spec, err := bench.LoadSpec(specPath)
	if err != nil {
		return false, err
	}
	exe, err := os.Executable()
	if err != nil {
		return false, err
	}
	rep, err := bench.AA(exe, spec, workload, n, seconds, os.Stderr)
	if err != nil {
		return false, err
	}
	rep.WriteTable(os.Stderr)
	out, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return false, err
	}
	fmt.Println(string(out))
	return rep.OK, nil
}

// fail reports a run that could not be made (exit 2; a run that was made
// and found incorrect exits 1).
func fail(err error) {
	fmt.Fprintln(os.Stderr, "ramsisbench:", err)
	os.Exit(2)
}

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: twitter_replay, drift_resolve, plane_burst or llm_tokens")
		seed     = flag.Int64("seed", 1, "seed every input is drawn from")
		seconds  = flag.Float64("seconds", 12, "how long the serve phase measures")
		trace    = flag.Int("trace", 0, "1 makes the traced run that reports the per-layer metrics")
		traceOut = flag.String("trace-out", "", "with -trace 1, write the spans to this file as JSONL")
		aa       = flag.Int("aa", 0, "run two interleaved sets of this many runs per workload (all, or the one -workload names) and compare them")
		specPath = flag.String("spec", "BENCHMARK.json", "with -aa, the benchmark contract to read workloads and bounds from")
	)
	flag.Parse()
	if *aa > 0 {
		ok, err := runAA(*workload, *aa, *seconds, *specPath)
		if err != nil {
			fail(err)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}
	res, err := bench.Run(bench.Options{
		Workload: *workload,
		Seed:     *seed,
		Seconds:  *seconds,
		Trace:    *trace != 0,
		TraceOut: *traceOut,
	})
	if err != nil {
		fail(err)
	}
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := res.Metrics[name]
		fmt.Printf("%-34s %14.6g %s\n", name, m.Value, m.Unit)
	}
	for _, p := range res.Problems {
		fmt.Fprintln(os.Stderr, "FAILED:", p)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}
