// Multiple latency SLOs (§G): per-SLO central queues with workers assigned
// to SLO classes, each running its own RAMSIS policy — an interactive
// 150 ms class and a relaxed 500 ms analytics class sharing one deployment.
//
//	go run ./examples/multislo
package main

import (
	"fmt"
	"log"

	"ramsis"
	"ramsis/examples/multislo/multislo"
)

func main() {
	classes := []multislo.Class{
		{Name: "interactive", SLO: 0.150, Workers: 6, Share: 0.6},
		{Name: "analytics", SLO: 0.500, Workers: 4, Share: 0.4},
	}
	system, err := multislo.New(ramsis.ImageModels(), classes, 0)
	if err != nil {
		log.Fatal(err)
	}

	const totalLoad = 300.0
	fmt.Printf("serving %.0f QPS split across %d SLO classes for 30s...\n\n", totalLoad, len(classes))
	results, err := system.Run(totalLoad, 30, 1)
	if err != nil {
		log.Fatal(err)
	}
	for i, c := range classes {
		m := results[c.Name]
		pol, _ := system.ClassPolicy(i, totalLoad)
		fmt.Printf("%-12s SLO %3.0f ms, %d workers, %.0f QPS share\n",
			c.Name, c.SLO*1000, c.Workers, c.Share*totalLoad)
		fmt.Printf("  accuracy %.4f (bound %.4f), violations %.4f%% (bound %.4f%%), %d queries\n\n",
			m.AccuracyPerSatisfiedQuery(), pol.ExpectedAccuracy,
			m.ViolationRate()*100, pol.ExpectedViolation*100, m.Served)
	}
	fmt.Println("the relaxed class exploits its deadline headroom to run the")
	fmt.Println("larger EfficientNets while the interactive class stays snappy.")
}
