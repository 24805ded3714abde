package bench

import (
	"fmt"
	"math/rand"

	"ramsis/internal/adapt"
	"ramsis/internal/core"
	"ramsis/internal/mdp"
	"ramsis/internal/monitor"
	"ramsis/internal/profile"
	"ramsis/internal/sim"
)

// driftResolve serves a rate staircase through the adaptation loop: the
// same core+mdp code as twitterReplay used the other way round — warm
// prioritized re-solves and cache hits mid-run instead of one cold ladder —
// so a gain for cold generation that costs the warm path shows here. Nearly
// all of a pass's wall time is the re-solves.
//
// The staircase is built so every seed sees the same adaptation sequence:
// each step moves the rate by 29 % or more (the hysteresis band is ±20 %),
// every level is a multiple of the 600-QPS bucket, and the 500 ms monitor's
// noise (σ ≈ 90 QPS at 4200) is far inside half a bucket. A probe with
// ±25 % steps and the default bucket gave 4 or 5 re-solves depending on the
// seed, and wall time per query followed. The top level stays at 4200:
// 80 workers cannot hold the SLO at 4800 QPS under any policy.
type driftResolve struct {
	smoke    bool
	arrivals []float64
	pol      *core.Policy
	want     *adapt.Stats
}

const (
	driftBase     = 3000.0
	driftBucket   = 600.0
	driftInterval = 10.0
)

// driftStairs visits 4200, 1800 and 1200 for the first time (three warm
// re-solves) and returns to a cached level five times.
var driftStairs = []float64{driftBase, 4200, 3000, 1800, 1200, 1800, 3000, 4200, 3000}

func (w *driftResolve) exact() bool { return true }

func (w *driftResolve) prepare(seed int64, smoke bool) {
	w.smoke = smoke
	interval := driftInterval
	if smoke {
		// Long enough for the 1 s dwell to confirm each step.
		interval = 2
	}
	w.arrivals = poissonArrivals(rand.New(rand.NewSource(seed)), driftStairs, interval)
}

func (w *driftResolve) adaptConfig() adapt.Config {
	return adapt.Config{
		Base:       imageConfig(driftBase, w.smoke),
		Band:       0.2,
		Dwell:      1,
		BucketSize: driftBucket,
	}
}

func (w *driftResolve) setUp(rec *recorder, _ *laps) error {
	id := rec.begin("core.Generate")
	pol, err := core.Generate(imageConfig(driftBase, w.smoke))
	rec.end(id)
	if err != nil {
		return err
	}
	w.pol = pol
	// adapt.New is part of "ready for the first query"; each pass builds
	// its own adapter so it starts with a cold cache.
	id = rec.begin("adapt.New")
	_, err = adapt.New(w.adaptConfig(), pol)
	rec.end(id)
	return err
}

func (w *driftResolve) tearDown() { w.pol = nil }

// verify checks that the warm prioritized re-solve the adapter relies on
// lands on the same policy as the pinned Jacobi solve of the same MDP.
func (w *driftResolve) verify() []string {
	cfg := imageConfig(driftStairs[1], w.smoke)
	m, err := core.BuildWorkerMDP(cfg)
	if err != nil {
		return []string{err.Error()}
	}
	cm := mdp.Compile(m)
	jacobi, err := cm.Solve(mdp.SolveOptions{Parallel: 1})
	if err != nil {
		return []string{err.Error()}
	}
	warm, err := cm.Solve(mdp.SolveOptions{Method: mdp.MethodPrioritized, InitialValues: w.pol.SolveValues()})
	if err != nil {
		return []string{err.Error()}
	}
	return comparePolicies("warm prioritized", warm.Policy, "Jacobi", jacobi.Policy)
}

func comparePolicies(an string, a mdp.Policy, bn string, b mdp.Policy) []string {
	if len(a) != len(b) {
		return []string{fmt.Sprintf("%s policy has %d states, %s %d", an, len(a), bn, len(b))}
	}
	for s := range a {
		if a[s] != b[s] {
			return []string{fmt.Sprintf("state %d: %s picks action %d, %s %d", s, an, a[s], bn, b[s])}
		}
	}
	return nil
}

func (w *driftResolve) serve(rec *recorder, _ *laps) pass {
	p := pass{counts: map[string]float64{}}
	a, err := adapt.New(w.adaptConfig(), w.pol)
	if err != nil {
		p.failf("adapt.New: %v", err)
		return p
	}
	sched := sim.NewAdaptiveRAMSIS(a, monitor.NewMovingAverage(0.5))
	e := sim.NewEngine(profile.ImageSet(), imageSLO, imageWorkers, sim.Deterministic{}, sched, 1)
	id := rec.begin("sim.Engine.Run")
	m := e.Run(w.arrivals)
	rec.end(id)
	p.addSim(m, len(w.arrivals))

	st := a.Stats()
	p.counts["adapt.resolves"] = float64(st.Resolves)
	p.counts["adapt.cache_hits"] = float64(st.CacheHits)
	p.counts["adapt.warm_starts"] = float64(st.WarmStarts)
	p.counts["adapt.swaps"] = float64(st.Swaps)
	if st.ResolveErrors != 0 {
		p.failf("%d re-solves failed", st.ResolveErrors)
	}
	if st.Resolves == 0 || st.CacheHits == 0 {
		p.failf("staircase exercised %d re-solves and %d cache hits, want both", st.Resolves, st.CacheHits)
	}
	if w.want == nil {
		w.want = &st
	} else if st != *w.want {
		p.failf("adapter stats %+v differ from the first pass's %+v", st, *w.want)
	}
	return p
}
