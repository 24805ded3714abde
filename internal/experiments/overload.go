package experiments

import (
	"fmt"

	"ramsis/internal/admit"
	"ramsis/internal/core"
	"ramsis/internal/monitor"
	"ramsis/internal/profile"
	"ramsis/internal/sim"
	"ramsis/internal/trace"
)

// OverloadPoint is one (overload multiple, admission policy) cell.
type OverloadPoint struct {
	Mult      float64
	Policy    string
	Goodput   float64
	ShedRate  float64
	Violation float64
}

// Overload is the overload-protection study: a RAMSIS policy solved for one
// rate serves arrivals at 1x / 2x / 4x that rate — the mis-provisioned
// burst scenario the MDP formulation assumes away (its arrival model is the
// solved-for rate, so the policy ladder has nothing better to offer). The
// monitor stays pinned to the solved rate, isolating the admission
// controller's contribution: without shedding every query is eventually
// served but almost none inside the SLO; deadline admission sheds the
// unmeetable excess at arrival and keeps the admitted queries' deadlines
// intact, which is exactly the goodput metric's point — the fraction of
// *offered* queries answered in time.
func (h *Harness) Overload() []OverloadPoint {
	const workers, slo, solved = 8, 0.150, 300.0
	models := profile.ImageSet()
	dur := 20.0
	if h.scale() == scaleQuick {
		dur = 10
	}
	set := h.policySet(models, slo, workers, []float64{solved}, "", nil)
	est := core.NewWaitEstimator(models, workers)
	pinned := trace.Constant(solved, dur)

	h.printf("Overload protection: goodput with and without deadline shedding\n")
	h.printf("(image, SLO %.0f ms, %d workers, policy solved for %.0f QPS, monitor pinned)\n",
		slo*1000, workers, solved)
	h.printf("%-6s %-10s %10s %10s %12s\n", "mult", "admit", "goodput", "shed", "violations")
	var out []OverloadPoint
	for _, mult := range []float64{1, 2, 4} {
		offered := trace.Constant(mult*solved, dur)
		arr := trace.PoissonArrivals(offered, h.opts.Seed)
		for _, admitter := range []admit.Admitter{nil, admit.Deadline{SLO: slo, Margin: 1, Est: est}} {
			name := "none"
			if admitter != nil {
				name = admitter.Name()
			}
			sched := sim.NewRAMSIS(set, monitor.Oracle{Trace: pinned})
			e := sim.NewEngine(models, slo, workers, sim.Deterministic{}, sched, h.opts.Seed)
			e.Admit = admitter
			m := e.Run(arr)
			p := OverloadPoint{
				Mult: mult, Policy: name,
				Goodput: m.GoodputRate(), ShedRate: m.ShedRate(), Violation: m.ViolationRate(),
			}
			out = append(out, p)
			h.printf("%-6s %-10s %10.4f %10.4f %12.5f\n", fmt.Sprintf("%gx", p.Mult), p.Policy, p.Goodput, p.ShedRate, p.Violation)
		}
	}
	h.printf("\n")
	h.saveResult("overload", out)
	return out
}
