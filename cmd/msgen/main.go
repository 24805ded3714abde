// Command msgen runs ModelSwitching's offline profiling step, mirroring the
// artifact's MS_gen.py: it measures each model's p99 response latency under
// a range of anticipated loads on the given resource configuration and
// writes the resulting table as JSON.
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"ramsis/internal/baselines"
	"ramsis/internal/cli"
	"ramsis/internal/profile"
)

func main() { cli.Main(run) }

func run(_ context.Context, args []string, stdout io.Writer) error {
	fs := cli.NewFlagSet("msgen")
	var (
		task     = fs.String("task", "image", "inference task: image or text")
		profPath = fs.String("profile", "", "scalar batch-latency profile JSON to profile instead of the builtin -task set (kinded format; an LLM step-time file is rejected with a pointer to -llm-profile)")
		sloMS    = fs.Float64("slo", 150, "latency SLO in milliseconds")
		workers  = fs.Int("workers", 60, "number of workers")
		loLoad   = fs.Float64("lo", 400, "lowest profiled load (QPS)")
		hiLoad   = fs.Float64("hi", 4000, "highest profiled load (QPS)")
		step     = fs.Float64("step", 100, "load step (QPS); the paper uses 100")
		dur      = fs.Float64("dur", 10, "profiling run length per (model, load), seconds")
		out      = fs.String("out", "policy_gen", "output directory")
		seed     = fs.Int64("seed", 1, "workload seed")
	)
	if _, err := fs.Parse(args); err != nil {
		return err
	}

	models, err := profile.SetForTask(*task)
	if *profPath != "" {
		models, err = profile.LoadSetFile(*profPath)
	}
	if err != nil {
		return err
	}
	var loads []float64
	for l := *loLoad; l <= *hiLoad; l += *step {
		loads = append(loads, l)
	}
	table := baselines.ProfileModelSwitching(models, *sloMS/1000, *workers, loads, *dur, *seed)

	path := filepath.Join(*out, fmt.Sprintf("MS_%s_%dw_%.0fms.json", models.Task, *workers, *sloMS))
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(table, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "profiled %d models x %d loads -> %s\n", models.Len(), len(loads), path)
	fmt.Fprintln(stdout, "script complete!")
	return nil
}
