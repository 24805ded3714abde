package experiments

import (
	"fmt"

	"ramsis/internal/profile"
	"ramsis/internal/trace"
)

// Panel is one (task, SLO) panel of Fig. 5 or Fig. 6 with its Table 3 or 4
// rows: each method's series over the figure's x axis.
type Panel struct {
	Task   string
	SLO    float64
	Series Series
}

// panels sweeps every (task, SLO) panel — each task's first SLO only at
// quick scale — and saves the panels as name.json.
func (h *Harness) panels(name string, panel func(task string, models profile.Set, slo float64) Series) []Panel {
	var out []Panel
	for _, task := range []string{"image", "text"} {
		models, _ := profile.SetForTask(task)
		slos := slosFor(task)
		if h.scale() == scaleQuick {
			slos = slos[:1]
		}
		for _, slo := range slos {
			out = append(out, Panel{Task: task, SLO: slo, Series: panel(task, models, slo)})
		}
	}
	h.saveResult(name, out)
	return out
}

// Fig5 reproduces §7.1: RAMSIS vs ModelSwitching vs Jellyfish+ on the
// 5-minute Twitter trace, sweeping workers 20-100, under both tasks and all
// three SLOs per task. It also prints Table 3 (the violation rates for the
// same grid). Points are marked reported only when the violation rate is
// below 5%, as in the paper.
func (h *Harness) Fig5() []Panel {
	tr := trace.Twitter()
	// The worker grid must be dense enough for the §7.1 resource-reduction
	// metric to resolve (the paper reports savings down to ~14%).
	workers := []float64{20, 40, 60, 80, 100}
	switch h.scale() {
	case scaleFull:
		workers = []float64{20, 30, 40, 50, 60, 70, 80, 90, 100}
	case scaleQuick:
		workers = []float64{20, 60}
		tr = tr.Truncate(30)
	default:
		tr = tr.Truncate(60)
	}
	ladder := h.ladderFor(tr)
	return h.panels("fig5", func(task string, models profile.Set, slo float64) Series {
		h.printf("Fig. 5 / Table 3 (%s, SLO %.0f ms, trace %s %.0fs)\n", task, slo*1000, tr.Name, tr.Duration())
		var arms []arm
		for _, m := range []string{MethodRAMSIS, MethodMS, MethodJF} {
			arms = append(arms, arm{m, func(w float64) runSpec {
				return runSpec{models: models, slo: slo, workers: int(w), method: m, tr: tr, ramsisLoads: ladder}
			}})
		}
		series, _ := h.sweep("#workers", workers, arms)
		h.plotSeries(fmt.Sprintf("Fig. 5 (%s, SLO %.0f ms): accuracy vs workers", task, slo*1000), series)
		h.summarizeGains(series)
		h.summarizeResourceReduction(series)
		return series
	})
}

// ResourceReduction computes the paper's headline cost metric (§7.1): for
// every baseline operating point (w workers at accuracy a), the smallest
// RAMSIS worker count achieving at least accuracy a, expressed as the
// fraction of workers saved. Returns per-baseline average and maximum
// reductions over points where both methods report (<5% violations).
func ResourceReduction(series Series, baseline string) (avg, max float64, n int) {
	ram := series[MethodRAMSIS]
	for _, b := range series[baseline] {
		if !b.Reported {
			continue
		}
		best := -1.0
		for _, r := range ram {
			if r.Reported && r.Accuracy >= b.Accuracy-1e-9 {
				if best < 0 || r.X < best {
					best = r.X
				}
			}
		}
		if best < 0 {
			continue
		}
		red := (b.X - best) / b.X
		if red < 0 {
			red = 0
		}
		avg += red
		if red > max {
			max = red
		}
		n++
	}
	if n > 0 {
		avg /= float64(n)
	}
	return avg, max, n
}

func (h *Harness) summarizeResourceReduction(series Series) {
	for _, base := range []string{MethodMS, MethodJF} {
		if avg, max, n := ResourceReduction(series, base); n > 0 {
			h.printf("RAMSIS vs %s: same accuracy with avg %.2f%% / up to %.2f%% fewer workers (%d points)\n",
				base, avg*100, max*100, n)
		}
	}
	h.printf("\n")
}

// summarizeGains prints the paper's headline statistics for a series:
// average and maximum accuracy improvement of RAMSIS over each baseline at
// points both report (<5% violations).
func (h *Harness) summarizeGains(series Series) {
	for _, base := range []string{MethodMS, MethodJF} {
		baseline, ok := series[base]
		if !ok {
			continue
		}
		byX := map[float64]Point{}
		for _, p := range baseline {
			byX[p.X] = p
		}
		var sum, max float64
		n := 0
		for _, p := range series[MethodRAMSIS] {
			b, ok := byX[p.X]
			if !ok || !p.Reported || !b.Reported {
				continue
			}
			gain := (p.Accuracy - b.Accuracy) * 100
			sum += gain
			if gain > max {
				max = gain
			}
			n++
		}
		if n > 0 {
			h.printf("RAMSIS vs %s: avg %+.2f%% accuracy, max %+.2f%% (over %d reported points)\n",
				base, sum/float64(n), max, n)
		}
	}
	h.printf("\n")
}
