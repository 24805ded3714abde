// Command trace inspects, generates, and converts query-load traces in the
// artifact's one-QPS-per-line format, and stitches distributed query-trace
// JSONL files into per-query critical paths. Without --stitch it always
// prints the trace's stats first:
//
//	trace                             # stats of the built-in Twitter trace
//	trace --export twitter.txt        # ... and write it in the artifact format
//	trace --in mytrace.txt            # stats of an external trace
//	trace --arrivals out.txt --seed 3 # ... and sample Poisson arrival times
//	trace --stitch a.jsonl,b.jsonl    # merge -trace-out files, print span trees
package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"os"
	"strings"

	"ramsis/internal/cli"
	"ramsis/internal/stats"
	"ramsis/internal/telemetry"
	"ramsis/internal/trace"
)

func main() { cli.Main(run) }

func run(_ context.Context, args []string, stdout io.Writer) error {
	fs := cli.NewFlagSet("trace")
	var (
		in       = fs.String("in", "", "input trace file (default: built-in Twitter trace)")
		interval = fs.Float64("interval", 10, "seconds per trace line")
		export   = fs.String("export", "", "write the trace in artifact format to this path")
		arrivals = fs.String("arrivals", "", "sample Poisson arrival times to this path")
		scale    = fs.Float64("scale", 1, "multiply every interval load")
		truncate = fs.Float64("truncate", 0, "keep only the first N seconds (0 = all)")
		seed     = fs.Int64("seed", 1, "arrival sampling seed")
		gamma    = fs.Int("gamma", 0, "sample Erlang-<shape> arrivals instead of Poisson (0 = Poisson)")
		stitch   = fs.String("stitch", "", "comma-separated -trace-out JSONL files: merge fragments, print per-query critical paths")
		top      = fs.Int("top", 10, "with -stitch, print only the N slowest queries (0 = all)")
	)
	if _, err := fs.Parse(args); err != nil {
		return err
	}

	if *stitch != "" {
		return stitchFiles(stdout, strings.Split(*stitch, ","), *top)
	}

	tr := trace.Twitter()
	if *in != "" {
		var err error
		tr, err = trace.LoadQPSFile(*in, *interval)
		if err != nil {
			return err
		}
	}
	if *scale != 1 {
		tr = tr.Scale(*scale)
	}
	if *truncate > 0 {
		tr = tr.Truncate(*truncate)
	}

	fmt.Fprintf(stdout, "trace:    %s\n", tr.Name)
	fmt.Fprintf(stdout, "duration: %.0f s (%d intervals of %.0f s)\n", tr.Duration(), len(tr.QPS), tr.IntervalSec)
	fmt.Fprintf(stdout, "load:     min %.0f / mean %.1f / max %.0f QPS\n", tr.MinQPS(), tr.MeanQPS(), tr.MaxQPS())
	fmt.Fprintf(stdout, "p50/p95:  %.0f / %.0f QPS\n", stats.Percentile(tr.QPS, 50), stats.Percentile(tr.QPS, 95))
	fmt.Fprintf(stdout, "queries:  ~%.0f expected\n", tr.MeanQPS()*tr.Duration())

	if *export != "" {
		if err := tr.SaveQPSFile(*export); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "exported to %s\n", *export)
	}
	if *arrivals != "" {
		var arr []float64
		if *gamma > 1 {
			arr = trace.GammaArrivals(tr, *seed, *gamma)
		} else {
			arr = trace.PoissonArrivals(tr, *seed)
		}
		f, err := os.Create(*arrivals)
		if err != nil {
			return err
		}
		w := bufio.NewWriter(f)
		for _, a := range arr {
			fmt.Fprintf(w, "%.6f\n", a)
		}
		if err := w.Flush(); err != nil {
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "sampled %d arrival times to %s\n", len(arr), *arrivals)
	}
	return nil
}

// stitchFiles merges multi-process -trace-out JSONL files, groups fragments
// by trace ID, and prints each query's span tree plus the critical-path
// stage breakdown — where the latency went: queueing, batch wait, dispatch,
// or inference.
func stitchFiles(w io.Writer, paths []string, top int) error {
	var all []telemetry.QueryTrace
	for _, path := range paths {
		path = strings.TrimSpace(path)
		if path == "" {
			continue
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		traces, err := telemetry.ReadTraces(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		all = append(all, traces...)
	}
	stitched := telemetry.Stitch(all)
	if len(stitched) == 0 {
		fmt.Fprintln(w, "no traceable fragments (files predate trace IDs?)")
		return nil
	}
	// Slowest end-to-end first: the queries worth explaining.
	for i := 1; i < len(stitched); i++ {
		for j := i; j > 0 && stitched[j].Final().LatencyMS > stitched[j-1].Final().LatencyMS; j-- {
			stitched[j], stitched[j-1] = stitched[j-1], stitched[j]
		}
	}
	n := len(stitched)
	if top > 0 && top < n {
		n = top
	}
	fmt.Fprintf(w, "%d fragments, %d stitched traces (showing %d slowest)\n\n", len(all), len(stitched), n)
	for _, s := range stitched[:n] {
		printStitched(w, s)
	}
	return nil
}

func printStitched(w io.Writer, s telemetry.StitchedTrace) {
	final := s.Final()
	head := fmt.Sprintf("trace %s", s.TraceID)
	if t := s.Tenant(); t != "" {
		head += " tenant=" + t
	}
	fmt.Fprintf(w, "%s latency=%.1fms model=%s batch=%d\n", head, final.LatencyMS, final.Model, final.Batch)
	for i, f := range s.Path() {
		indent := strings.Repeat("  ", i)
		loc := f.Process
		if f.Worker >= 0 {
			loc += fmt.Sprintf(" (worker %d)", f.Worker)
		}
		fmt.Fprintf(w, "%s└─ %s", indent, loc)
		if f.Error != "" {
			fmt.Fprintf(w, " error=%q", f.Error)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "  critical path:")
	for _, sp := range s.CriticalPath() {
		fmt.Fprintf(w, " %s=%.1fms", sp.Stage, sp.Seconds*1000)
	}
	fmt.Fprintln(w)
	if d := s.Decision(); d != nil {
		fmt.Fprintf(w, "  decision: kind=%s model=%s batch=%d queue=%d predicted=%.1fms realized=%.1fms outcome=%q\n",
			d.Kind, d.Model, d.Batch, d.QueueLen, d.PredictedSec*1000, d.RealizedSec*1000, d.Outcome)
	}
	fmt.Fprintln(w)
}
