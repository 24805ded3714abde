package experiments

import (
	"fmt"

	"ramsis/internal/profile"
)

// Fig6 reproduces §7.2: constant query load under Poisson arrivals for 30
// seconds, 60 workers (image) / 20 workers (text), with a perfect load
// monitor, sweeping load 400-4000 QPS. Also prints Table 4's violation
// rates.
func (h *Harness) Fig6() []Panel {
	loads, dur := h.constLoads(loadRange(400, 4000, 800), loadRange(400, 4000, 400), []float64{800, 2400, 4000})
	return h.panels("fig6", func(task string, models profile.Set, slo float64) Series {
		workers := fig6Workers(task)
		h.printf("Fig. 6 / Table 4 (%s, SLO %.0f ms, %d workers, %.0fs constant load)\n",
			task, slo*1000, workers, dur)
		var arms []arm
		for _, m := range []string{MethodRAMSIS, MethodMS, MethodJF} {
			arms = append(arms, constArm(m, dur, runSpec{models: models, slo: slo, workers: workers, method: m}))
		}
		series, _ := h.sweep("load(QPS)", loads, arms)
		h.plotSeries(fmt.Sprintf("Fig. 6 (%s, SLO %.0f ms): accuracy vs load", task, slo*1000), series)
		h.summarizeGains(series)
		return series
	})
}
