// Command ramsisgen runs RAMSIS's offline phase for one configuration and
// writes the generated model-selection policy as JSON, mirroring the
// artifact's RAMSIS_gen.py:
//
//	ramsisgen --task image --slo 150 --workers 60 --load 2000 --out gen/
package main

import (
	"context"
	"fmt"
	"io"
	"path/filepath"

	"ramsis/internal/cli"
	"ramsis/internal/core"
	"ramsis/internal/dist"
	"ramsis/internal/profile"
	"ramsis/internal/sim"
)

func main() { cli.Main(run) }

func run(_ context.Context, args []string, stdout io.Writer) error {
	fs := cli.NewFlagSet("ramsisgen")
	var (
		task      = fs.String("task", "image", "inference task: image or text")
		sloMS     = fs.Float64("slo", 150, "latency SLO in milliseconds")
		workers   = fs.Int("workers", 1, "number of workers K")
		load      = fs.Float64("load", 1, "query load in QPS")
		out       = fs.String("out", "policy_gen", "output directory")
		d         = fs.Int("d", 100, "FLD resolution D")
		disc      = fs.String("disc", "FLD", "time discretization: FLD or MD")
		batching  = fs.String("batching", "max", "batching strategy: max or variable")
		balancing = fs.String("balancing", "rr", "load balancing the policy assumes: rr, jsq (alias sqf), or p2c")
		gamma     = fs.Float64("gamma", 0.99, "value-iteration discount factor")
		describe  = fs.Bool("describe", false, "print the policy decision table")
		verify    = fs.Bool("verify", false, "simulate 30s at the design load and check the guarantees")
	)
	if _, err := fs.Parse(args); err != nil {
		return err
	}

	models, err := profile.SetForTask(*task)
	if err != nil {
		return err
	}
	cfg := core.Config{
		Models:  models,
		SLO:     *sloMS / 1000,
		Workers: *workers,
		Arrival: dist.NewPoisson(*load),
		D:       *d,
		Gamma:   *gamma,
	}
	switch *disc {
	case "FLD":
		cfg.Disc = core.FixedLength
	case "MD":
		cfg.Disc = core.ModelBased
	default:
		return fmt.Errorf("unknown -disc %q (want FLD or MD)", *disc)
	}
	switch *batching {
	case "max":
		cfg.Batching = core.MaximalBatching
	case "variable":
		cfg.Batching = core.VariableBatching
	default:
		return fmt.Errorf("unknown -batching %q (want max or variable)", *batching)
	}
	if cfg.Balancing, err = core.ParseBalancing(*balancing); err != nil {
		return fmt.Errorf("-balancing: %w", err)
	}

	pol, err := core.Generate(cfg)
	if err != nil {
		return err
	}
	path := filepath.Join(*out,
		fmt.Sprintf("RAMSIS_%s_%dw_%.0fms", *task, *workers, *sloMS),
		fmt.Sprintf("%.0f.json", *load))
	if err := pol.Save(path); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "policy: %s\n", path)
	fmt.Fprintf(stdout, "states=%d transitions=%d iterations=%d build=%v solve=%v\n",
		pol.States, pol.Transitions, pol.Iterations, pol.BuildTime.Round(1e6), pol.SolveTime.Round(1e6))
	fmt.Fprintf(stdout, "expected accuracy=%.4f expected violation rate=%.6f\n",
		pol.ExpectedAccuracy, pol.ExpectedViolation)
	if *describe {
		pol.Describe(stdout)
	}
	if *verify {
		m := sim.VerifyPolicy(pol, models, 30, 1)
		fmt.Fprintf(stdout, "verified over %d queries: accuracy %.4f (bound >= %.4f), violations %.4f%% (bound <= %.4f%%)\n",
			m.Served, m.AccuracyPerSatisfiedQuery(), pol.ExpectedAccuracy,
			m.ViolationRate()*100, pol.ExpectedViolation*100)
	}
	fmt.Fprintln(stdout, "script complete!")
	return nil
}
