package experiments

import (
	"ramsis/internal/profile"
)

// Fig8 reproduces §7.3.2: sensitivity to the model count. The low scenario
// uses the M = 9 Pareto-front models; the high scenario a synthetic M = 60
// superset interpolated along the front in ~0.5% accuracy steps. RAMSIS and
// ModelSwitching run at 100 workers under 30-second constant loads. The
// reproduced claim: ModelSwitching improves markedly with 60 models while
// RAMSIS sees negligible benefit — its fine-grained decisions emulate a
// large model set.
func (h *Harness) Fig8() Series {
	const slo, workers = 0.150, 100
	nine := profile.ImageSet().ParetoFront()
	sixty := profile.InterpolatedSet(profile.ImageSet(), 60)
	loads, dur := h.constLoads(loadRange(800, 4000, 800), loadRange(400, 4000, 400), []float64{800, 2400})
	h.printf("Fig. 8: model-count sensitivity (image, SLO %.0f ms, %d workers)\n", slo*1000, workers)
	series, _ := h.sweep("load(QPS)", loads, []arm{
		constArm("RAMSIS M=9", dur, runSpec{models: nine, slo: slo, workers: workers, method: MethodRAMSIS}),
		constArm("RAMSIS M=60", dur, runSpec{models: sixty, slo: slo, workers: workers, method: MethodRAMSIS}),
		constArm("MS M=9", dur, runSpec{models: nine, slo: slo, workers: workers, method: MethodMS}),
		constArm("MS M=60", dur, runSpec{models: sixty, slo: slo, workers: workers, method: MethodMS}),
	})
	h.printf("\n")
	h.plotSeries("Fig. 8: model-count sensitivity (accuracy vs load)", series)
	h.saveResult("fig8", series)
	return series
}
