package experiments

import (
	"ramsis/internal/profile"
	"ramsis/internal/sim"
)

// Fig7Point is one fidelity measurement: expectation vs simulation vs
// implementation at a (workers, load) cell.
type Fig7Point struct {
	Workers int
	Load    float64

	ExpAccuracy  float64
	SimAccuracy  float64
	ImplAccuracy float64

	ExpViolation  float64
	SimViolation  float64
	ImplViolation float64

	// Tail latency (seconds) from the engine's telemetry histogram: the
	// p99 against the SLO shows how close each variant runs to the edge.
	SimLatencyP99  float64
	ImplLatencyP99 float64
}

// Fig7 reproduces §7.3.1: RAMSIS's achieved accuracy and violation rate in
// theoretical expectation (§5.1), in the deterministic-latency simulator,
// and in the latency-variance "implementation" variant, for 30-second
// constant loads at 40, 60, and 80 workers (image task, 150 ms SLO).
//
// Substitution note: the paper's implementation column is the TorchServe
// prototype; ours is the same scheduler under stochastic inference latency
// (σ ≈ 10 ms as the paper profiles), the one property §7.3.1 identifies as
// the sim/implementation gap. The HTTP prototype in internal/serve
// validates the serving stack separately.
func (h *Harness) Fig7() []Fig7Point {
	models := profile.ImageSet()
	const slo = 0.150
	dur := 20.0
	workerSet := []int{40, 60, 80}
	loadsFor := func(workers int) []float64 {
		// Sweep up to just past each configuration's peak capacity so the
		// violation overestimation at saturation is visible.
		max := 600.0 * float64(workers) / 10
		return loadRange(max/4, max, max/4)
	}
	switch h.scale() {
	case scaleFull:
		dur = 30.0
	case scaleQuick:
		dur = 10.0
		workerSet = []int{60}
		loadsFor = func(workers int) []float64 {
			max := 600.0 * float64(workers) / 10
			return []float64{max / 2, max}
		}
	}
	var out []Fig7Point
	h.printf("Fig. 7: RAMSIS fidelity — expectation vs simulation vs implementation (image, SLO 150 ms)\n")
	h.printf("%8s %10s  %8s %8s %8s  %9s %9s %9s  %8s %8s\n", "#workers", "load(QPS)",
		"E[acc]", "sim acc", "impl acc", "E[viol]", "sim viol", "impl viol",
		"sim p99", "impl p99")
	// Each (workers, load) cell needs a deterministic-latency run and a
	// stochastic one; interleave them so runAll keeps cells adjacent.
	type cell struct {
		workers int
		load    float64
	}
	var cells []cell
	var specs []runSpec
	for _, workers := range workerSet {
		for _, load := range loadsFor(workers) {
			cells = append(cells, cell{workers, load})
			det := constLoad(runSpec{models: models, slo: slo, workers: workers, method: MethodRAMSIS}, load, dur)
			noisy := det
			noisy.latency = sim.Stochastic{StdDev: 0.010}
			specs = append(specs, det, noisy)
		}
	}
	mets := h.runAll(specs)
	for i, c := range cells {
		set := h.policySet(models, slo, c.workers, []float64{c.load}, "", nil)
		pol, err := set.PolicyFor(c.load)
		if err != nil {
			panic(err)
		}
		simM, implM := mets[2*i], mets[2*i+1]
		p := Fig7Point{
			Workers:        c.workers,
			Load:           c.load,
			ExpAccuracy:    pol.ExpectedAccuracy,
			SimAccuracy:    simM.AccuracyPerSatisfiedQuery(),
			ImplAccuracy:   implM.AccuracyPerSatisfiedQuery(),
			ExpViolation:   pol.ExpectedViolation,
			SimViolation:   simM.ViolationRate(),
			ImplViolation:  implM.ViolationRate(),
			SimLatencyP99:  simM.LatencyP99,
			ImplLatencyP99: implM.LatencyP99,
		}
		out = append(out, p)
		h.printf("%8d %10.0f  %8.4f %8.4f %8.4f  %9.5f %9.5f %9.5f  %6.1fms %6.1fms\n",
			p.Workers, p.Load, p.ExpAccuracy, p.SimAccuracy, p.ImplAccuracy,
			p.ExpViolation, p.SimViolation, p.ImplViolation,
			p.SimLatencyP99*1000, p.ImplLatencyP99*1000)
	}
	h.printf("\n")
	h.saveResult("fig7", out)
	return out
}
