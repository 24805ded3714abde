// Image classification on a production-style trace: RAMSIS head to head
// with the Jellyfish+ and ModelSwitching baselines on a scaled-down Twitter
// trace, reproducing the §7.1 comparison in miniature.
//
//	go run ./examples/imageclassification
package main

import (
	"fmt"
	"log"

	"ramsis"
	"ramsis/internal/baselines"
	"ramsis/internal/monitor"
	"ramsis/internal/sim"
	"ramsis/internal/trace"
)

func main() {
	const (
		workers = 12
		sloMS   = 150.0
	)
	models := ramsis.ImageModels()
	slo := sloMS / 1000

	// A 60-second slice of the diurnal trace, scaled to this deployment
	// (original range 1,617-3,905 QPS across 100 workers; here ~1/8).
	tr := ramsis.TwitterTrace().Scale(0.125).Truncate(60)
	fmt.Printf("trace: %.0f-%.0f QPS over %.0fs, %d workers, SLO %.0f ms\n",
		tr.MinQPS(), tr.MaxQPS(), tr.Duration(), workers, sloMS)
	arrivals := trace.PoissonArrivals(tr, 7)
	fmt.Printf("queries: %d\n\n", len(arrivals))

	// RAMSIS: pre-compute a policy ladder covering the trace loads.
	system, err := ramsis.New(ramsis.Options{Models: models, SLOMillis: sloMS, Workers: workers})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("generating RAMSIS policy ladder...")
	if err := system.PrecomputePolicies(250, 350, 450, 550, 650); err != nil {
		log.Fatal(err)
	}

	// ModelSwitching: offline response-latency profiling (§7).
	fmt.Println("profiling ModelSwitching response latencies...")
	msTable := baselines.ProfileModelSwitching(models, slo, workers,
		[]float64{200, 300, 400, 500, 600, 700}, 10, 1)

	run := func(name string, sched sim.Scheduler) sim.Metrics {
		e := sim.NewEngine(models, slo, workers, sim.Deterministic{}, sched, 1)
		m := e.Run(arrivals)
		fmt.Printf("%-15s accuracy %.4f   violations %.4f%%   decisions %d\n",
			name, m.AccuracyPerSatisfiedQuery(), m.ViolationRate()*100, m.Decisions)
		return m
	}

	fmt.Println("\nserving the trace with each MS&S scheme:")
	mR := run("RAMSIS", sim.NewRAMSIS(system.PolicySet(), monitor.NewMovingAverage(0.5)))
	jf := baselines.JellyfishPlus{Profiles: models, SLO: slo, Workers: workers}
	mJ := run("Jellyfish+", sim.Scheme{Monitor: monitor.NewMovingAverage(0.5), Select: jf.Selector()})
	ms := baselines.ModelSwitching{Profiles: models, SLO: slo, Table: msTable}
	mM := run("ModelSwitching", sim.Scheme{Monitor: monitor.NewMovingAverage(0.5), Select: ms.Selector()})

	fmt.Printf("\nRAMSIS accuracy gain: %+.2f%% vs Jellyfish+, %+.2f%% vs ModelSwitching\n",
		(mR.AccuracyPerSatisfiedQuery()-mJ.AccuracyPerSatisfiedQuery())*100,
		(mR.AccuracyPerSatisfiedQuery()-mM.AccuracyPerSatisfiedQuery())*100)
}
