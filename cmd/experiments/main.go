// Command experiments regenerates the paper's tables and figures:
//
//	experiments --exp all            # every experiment, scaled default
//	experiments --exp fig5 --full    # one experiment at paper scale
//
// Experiments: fig2 fig3 fig9 table2 fig5 fig6 fig7 fig8 fig10 fig11 fig12
// infaas sqf misspec scaling greedy overload, or all. (Table 1 is
// qualitative — see README; Tables 3 and 4 are printed together with
// Figs. 5 and 6.) The figure sweeps run on GOMAXPROCS goroutines; their
// results do not depend on it.
package main

import (
	"context"
	"fmt"
	"io"
	"strings"
	"time"

	"ramsis/internal/cli"
	"ramsis/internal/experiments"
)

func main() { cli.Main(run) }

func run(_ context.Context, args []string, stdout io.Writer) error {
	fs := cli.NewFlagSet("experiments")
	order := []string{"fig2", "fig3", "fig9", "table2", "fig5", "fig6", "fig7", "fig8", "fig10", "fig11", "fig12", "infaas", "sqf", "misspec", "scaling", "greedy", "overload"}
	var (
		exp        = fs.String("exp", "all", "experiment id: "+strings.Join(order, ", ")+", or all")
		full       = fs.Bool("full", false, "paper-scale grid (slow)")
		quick      = fs.Bool("quick", false, "minimal grid for smoke runs")
		seed       = fs.Int64("seed", 1, "workload seed")
		policyDir  = fs.String("policy-dir", "", "cache generated policies under this directory")
		resultsDir = fs.String("results-dir", "", "write structured JSON results under this directory")
		plotFlag   = fs.Bool("plot", false, "render ASCII charts alongside the numeric rows")
	)
	if _, err := fs.Parse(args); err != nil {
		return err
	}

	h := experiments.New(experiments.Options{
		Full: *full, Quick: *quick, Seed: *seed, Out: stdout,
		PolicyDir: *policyDir, ResultsDir: *resultsDir, Plot: *plotFlag,
	})
	runners := map[string]func(){
		"fig2":     func() { h.Fig2() },
		"fig3":     func() { h.Fig3() },
		"fig9":     func() { h.Fig9() },
		"table2":   func() { h.Table2() },
		"fig5":     func() { h.Fig5() },
		"fig6":     func() { h.Fig6() },
		"fig7":     func() { h.Fig7() },
		"fig8":     func() { h.Fig8() },
		"fig10":    func() { h.Fig10() },
		"fig11":    func() { h.Fig11() },
		"fig12":    func() { h.Fig12() },
		"infaas":   func() { h.INFaaS() },
		"sqf":      func() { h.SQF() },
		"misspec":  func() { h.Misspec() },
		"scaling":  func() { h.Scaling() },
		"greedy":   func() { h.Greedy() },
		"overload": func() { h.Overload() },
	}

	ids := []string{*exp}
	if *exp == "all" {
		ids = order
	}
	for _, id := range ids {
		run, ok := runners[strings.ToLower(id)]
		if !ok {
			return fmt.Errorf("unknown -exp %q (want one of %v)", id, order)
		}
		start := time.Now()
		run()
		fmt.Fprintf(stdout, "[%s done in %v]\n\n", id, time.Since(start).Round(time.Millisecond))
	}
	return nil
}
