// Custom arrival distributions and load balancing: RAMSIS is parameterized
// by the arrival distribution (§3.1.1) and can be re-derived for other load
// balancers (Appendix I). This example generates policies for Poisson and
// Erlang-4 ("Gamma") arrivals and for shortest-queue-first balancing, and
// compares the guarantees and simulated results.
//
//	go run ./examples/customarrival
package main

import (
	"fmt"
	"log"

	"ramsis"
	"ramsis/internal/core"
	"ramsis/internal/dist"
	"ramsis/internal/monitor"
	"ramsis/internal/sim"
	"ramsis/internal/trace"
)

func main() {
	const (
		workers = 8
		sloMS   = 150.0
		load    = 250.0
	)
	models := ramsis.ImageModels()

	// Poisson vs Erlang-4 arrivals: the more regular process has fewer
	// bursts, so RAMSIS can promise (and deliver) higher accuracy.
	fmt.Println("arrival-distribution comparison at", load, "QPS:")
	for _, cse := range []struct {
		name  string
		shape int
	}{{"Poisson", 1}, {"Erlang-4", 4}} {
		system, err := ramsis.New(ramsis.Options{
			Models: models, SLOMillis: sloMS, Workers: workers, GammaShape: cse.shape,
		})
		if err != nil {
			log.Fatal(err)
		}
		if err := system.PrecomputePolicies(load); err != nil {
			log.Fatal(err)
		}
		pol, _ := system.Policy(load)

		// Simulate under the matching inter-arrival pattern.
		tr := ramsis.ConstantTrace(load, 20)
		sched := sim.NewRAMSIS(system.PolicySet(), monitor.Oracle{Trace: tr})
		e := sim.NewEngine(models, sloMS/1000, workers, sim.Deterministic{}, sched, 5)
		var arr []float64
		if cse.shape == 1 {
			arr = trace.PoissonArrivals(tr, 5)
		} else {
			arr = trace.GammaArrivals(tr, 5, cse.shape)
		}
		m := e.Run(arr)
		fmt.Printf("  %-9s expected accuracy %.4f | measured %.4f, violations %.4f%%\n",
			cse.name, pol.ExpectedAccuracy, m.AccuracyPerSatisfiedQuery(), m.ViolationRate()*100)
	}

	// Round-robin vs shortest-queue-first (Appendix I): both the offline
	// transition probabilities and the online router switch together.
	fmt.Println("\nload-balancer comparison (Appendix I):")
	for _, cse := range []struct {
		name    string
		balance core.Balancing
	}{{"round-robin", core.RoundRobin}, {"shortest-queue-first", core.ShortestQueueFirst}} {
		set := core.NewPolicySet(core.Config{
			Models: models, SLO: sloMS / 1000, Workers: workers,
			Arrival: dist.NewPoisson(1), Balancing: cse.balance,
		}, nil)
		if err := set.GenerateLoads([]float64{load}); err != nil {
			log.Fatal(err)
		}
		tr := ramsis.ConstantTrace(load, 20)
		sched := sim.NewRAMSIS(set, monitor.Oracle{Trace: tr})
		sched.LB = sim.BalancerFor(cse.balance, 1)
		e := sim.NewEngine(models, sloMS/1000, workers, sim.Deterministic{}, sched, 5)
		m := e.Run(trace.PoissonArrivals(tr, 5))
		fmt.Printf("  %-22s accuracy %.4f, violations %.4f%%\n",
			cse.name, m.AccuracyPerSatisfiedQuery(), m.ViolationRate()*100)
	}
}
