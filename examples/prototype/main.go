// Prototype: the full client-server serving stack of §6 on localhost —
// worker HTTP servers that hold requests for the profiled inference
// latency (with the ~10 ms jitter the paper measures), the frontend with a
// round-robin balancer and per-worker model selectors, and a replay driver
// pacing Poisson arrivals into it in real time — the same dispatch loop
// live clients reach over POST /query.
//
//	go run ./examples/prototype
package main

import (
	"context"
	"fmt"
	"log"

	"ramsis"
	"ramsis/internal/adapt"
	"ramsis/internal/monitor"
	"ramsis/internal/sched"
	"ramsis/internal/serve"
	"ramsis/internal/trace"
)

func main() {
	const (
		workers   = 4
		sloMS     = 150.0
		load      = 100.0
		duration  = 8.0
		timeScale = 2.0 // run modeled time 2x faster than wall time
	)
	models := ramsis.ImageModels()

	fmt.Println("offline phase: generating the RAMSIS policy ladder...")
	system, err := ramsis.New(ramsis.Options{Models: models, SLOMillis: sloMS, Workers: workers})
	if err != nil {
		log.Fatal(err)
	}
	// Cover the moving-average monitor's fluctuation range so serving never
	// waits on (or competes with) on-demand policy generation.
	if err := system.PrecomputePolicies(load, load*1.5, load*2); err != nil {
		log.Fatal(err)
	}

	// A monitored load past the ladder generates its rung in the background
	// (§3.2.2) while dispatch keeps the top rung; Stop waits for it.
	adapter := adapt.NewCoverage(system.PolicySet(), true, nil)
	defer adapter.Stop()

	fmt.Println("starting worker HTTP servers and the frontend...")
	cluster, err := serve.StartCluster(serve.ClusterConfig{
		Models:        models,
		Workers:       workers,
		SLO:           sloMS / 1000,
		TimeScale:     timeScale,
		LatencyStdDev: 0.010,
		Select:        sched.AdaptiveSelector(adapter),
		Monitor:       monitor.NewMovingAverage(0.5),
		Seed:          1,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Stop()
	fmt.Printf("  %d workers behind %s\n", workers, cluster.URL())

	tr := ramsis.ConstantTrace(load, duration)
	arrivals := trace.PoissonArrivals(tr, 11)
	fmt.Printf("replaying %d queries over %.0f modeled seconds (%.0fs wall)...\n",
		len(arrivals), duration, duration/timeScale)
	m, err := cluster.Frontend.Replay(context.Background(), arrivals)
	if err != nil {
		log.Fatal(err)
	}

	pol, _ := system.Policy(load)
	fmt.Printf("\nserved %d queries in %d HTTP batches\n", m.Served, m.Decisions)
	fmt.Printf("accuracy per satisfied query: %.4f  (offline bound %.4f)\n",
		m.AccuracyPerSatisfiedQuery(), pol.ExpectedAccuracy)
	fmt.Printf("latency SLO violation rate:   %.4f%% (offline bound %.4f%%)\n",
		m.ViolationRate()*100, pol.ExpectedViolation*100)
}
