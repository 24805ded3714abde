package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"strconv"
)

// Spec is the part of BENCHMARK.json — the contract the driver checks the
// benchmark against — that the A/A check and the tests read.
type Spec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []MetricSpec `json:"end_to_end"`
	PerLayer []MetricSpec `json:"per_layer"`
}

// MetricSpec declares one metric. Bound is set on end-to-end metrics only:
// the share of the baseline median by which the metric may worsen.
type MetricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// LoadSpec reads BENCHMARK.json.
func LoadSpec(path string) (Spec, error) {
	var s Spec
	data, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(data, &s); err != nil {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// AARow compares one end-to-end metric on one workload between two sets of
// runs of the same binary, the way the driver compares a change with its
// parent: each set's spread (inter-quartile range over median across seeds)
// and the share by which set B's median is worse than set A's.
type AARow struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	Unit     string  `json:"unit"`
	Better   string  `json:"better"`
	Bound    float64 `json:"bound"`
	// ValuesA and ValuesB are the runs' values in seed order.
	ValuesA []float64 `json:"values_a"`
	ValuesB []float64 `json:"values_b"`
	MedianA float64   `json:"median_a"`
	MedianB float64   `json:"median_b"`
	SpreadA float64   `json:"spread_a"`
	SpreadB float64   `json:"spread_b"`
	// Worse is how much worse B's median is than A's, as a share of A's
	// (negative when B is better).
	Worse float64 `json:"worse"`
	// Identical reports that both sets hold bit-identical values run for
	// run — expected of virtual-time quality.
	Identical bool `json:"identical"`
	// Steady reports that both spreads are below a third of the bound.
	Steady bool `json:"steady"`
	OK     bool `json:"ok"`
}

// AAReport is the -aa mode's output, committed as AA.json.
type AAReport struct {
	Runs    int     `json:"runs_per_set"`
	Seconds float64 `json:"seconds"`
	Rows    []AARow `json:"rows"`
	OK      bool    `json:"ok"`
}

// compareSets fills in a row's statistics and verdict. The spread of
// setup_s is not held to the bound (the driver exempts it too); its medians
// are.
func compareSets(row AARow, a, b []float64) AARow {
	row.ValuesA, row.ValuesB = a, b
	row.MedianA, row.MedianB = median(a), median(b)
	row.SpreadA, row.SpreadB = spread(a), spread(b)
	if row.MedianA != 0 {
		row.Worse = (row.MedianB - row.MedianA) / row.MedianA
		if row.Better == "higher" {
			row.Worse = -row.Worse
		}
	}
	row.Identical = len(a) == len(b)
	for i := 0; row.Identical && i < len(a); i++ {
		row.Identical = a[i] == b[i]
	}
	widest := math.Max(row.SpreadA, row.SpreadB)
	row.Steady = widest < row.Bound/3
	row.OK = row.Worse <= row.Bound && (row.Metric == "setup_s" || widest <= row.Bound)
	return row
}

// AA runs two interleaved sets of n untraced runs per workload on the
// binary at exe, seeds 1..n in both sets, and compares them; only restricts
// it to one workload when not empty. Progress goes to log.
func AA(exe string, spec Spec, only string, n int, seconds float64, log io.Writer) (AAReport, error) {
	rep := AAReport{Runs: n, Seconds: seconds, OK: true}
	for _, w := range spec.Workloads {
		if only != "" && w.Name != only {
			continue
		}
		sets := [2]map[string][]float64{{}, {}}
		for i := 0; i < n; i++ {
			// Alternate which set goes first, so drift in the host's speed
			// lands on both.
			for j := 0; j < 2; j++ {
				set := (i + j) % 2
				res, err := runOnce(exe, w.Name, int64(i+1), seconds)
				if err != nil {
					return rep, err
				}
				for name, m := range res.Metrics {
					sets[set][name] = append(sets[set][name], m.Value)
				}
				fmt.Fprintf(log, "%s seed %d set %c done\n", w.Name, i+1, 'A'+set)
			}
		}
		for _, m := range spec.EndToEnd {
			row := compareSets(AARow{
				Workload: w.Name, Metric: m.Name, Unit: m.Unit, Better: m.Better, Bound: m.Bound,
			}, sets[0][m.Name], sets[1][m.Name])
			rep.Rows = append(rep.Rows, row)
			rep.OK = rep.OK && row.OK
		}
	}
	return rep, nil
}

// runOnce runs one untraced workload run and parses its last output line.
func runOnce(exe, workload string, seed int64, seconds float64) (Result, error) {
	var res Result
	cmd := exec.Command(exe,
		"-workload", workload,
		"-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64),
		"-trace", "0")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return res, fmt.Errorf("%s seed %d: %w", workload, seed, err)
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return res, fmt.Errorf("%s seed %d: last output line: %w", workload, seed, err)
	}
	return res, nil
}

// WriteTable renders the report for a terminal.
func (r AAReport) WriteTable(w io.Writer) {
	fmt.Fprintf(w, "%-15s %-18s %12s %12s %8s %8s %8s %6s  %s\n",
		"workload", "metric", "median A", "median B", "spreadA", "spreadB", "worse", "bound", "verdict")
	for _, row := range r.Rows {
		verdict := "ok"
		switch {
		case !row.OK:
			verdict = "FAIL"
		case row.Identical:
			verdict = "ok, identical"
		case !row.Steady:
			verdict = "ok, spread above bound/3"
		}
		fmt.Fprintf(w, "%-15s %-18s %12.6g %12.6g %7.2f%% %7.2f%% %+7.2f%% %5.1f%%  %s\n",
			row.Workload, row.Metric, row.MedianA, row.MedianB,
			100*row.SpreadA, 100*row.SpreadB, 100*row.Worse, 100*row.Bound, verdict)
	}
}
