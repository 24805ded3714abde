// Capacity planning with RAMSIS's probabilistic guarantees (§5.1): the
// resource manager searches offline for the fewest workers meeting an
// accuracy target and a violation bound — no workload runs needed — then
// derives an autoscaling schedule for a diurnal trace and reports the cost
// saving over static peak provisioning.
//
//	go run ./examples/capacityplanning
package main

import (
	"fmt"
	"log"

	"ramsis"
	"ramsis/examples/capacityplanning/resource"
)

func main() {
	models := ramsis.ImageModels()
	req := resource.Requirements{
		SLO:          0.150,
		MinAccuracy:  0.72,
		MaxViolation: 0.01,
		D:            50,
	}

	// One-shot question: how many workers does 400 QPS need?
	fmt.Println("searching the smallest deployment for 400 QPS")
	fmt.Printf("(accuracy >= %.0f%%, violations <= %.1f%%, SLO %.0f ms)...\n",
		req.MinAccuracy*100, req.MaxViolation*100, req.SLO*1000)
	plan, err := resource.MinWorkers(models, req, 400, 64)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("-> %d workers (expected accuracy %.4f, violations %.4f%%)\n\n",
		plan.Workers, plan.Policy.ExpectedAccuracy, plan.Policy.ExpectedViolation*100)

	// Trace-driven: static peak provisioning vs per-interval autoscaling.
	tr := ramsis.TwitterTrace().Scale(0.15) // ~240-590 QPS diurnal profile
	fmt.Printf("planning for a diurnal trace (%.0f-%.0f QPS over %.0fs)...\n",
		tr.MinQPS(), tr.MaxQPS(), tr.Duration())
	static, err := resource.StaticPlan(models, req, tr, 64)
	if err != nil {
		log.Fatal(err)
	}
	sched, err := resource.Autoscale(models, req, tr, 64, 1.1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("static peak provisioning: %d workers always on\n", static.Workers)
	fmt.Printf("autoscaled schedule:      %.1f workers on average (peak %d)\n",
		sched.MeanWorkers(), sched.Peak())
	fmt.Printf("cost saving:              %.1f%%\n",
		(1-sched.MeanWorkers()/float64(static.Workers))*100)
	fmt.Println("\nper-interval workers:")
	for i, w := range sched.Workers {
		fmt.Printf("  t=%3.0fs load=%4.0f QPS -> %d workers\n",
			float64(i)*tr.IntervalSec, tr.QPS[i], w)
	}
}
