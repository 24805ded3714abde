package experiments

import (
	"fmt"

	"ramsis/internal/core"
	"ramsis/internal/profile"
)

// Fig10 reproduces §C: impact of the time discretization. RAMSIS runs with
// FLD D in {2, 10, 100} and with MD at 60 workers (image, 150 ms SLO) under
// constant loads. With large enough D, FLD matches MD; small D is
// conservative and loses accuracy.
func (h *Harness) Fig10() Series {
	const slo, workers = 0.150, 60
	loads, dur := h.constLoads(loadRange(800, 3200, 800), loadRange(400, 3200, 400), []float64{1600})
	disc := func(label string, mut func(*core.Config)) arm {
		return constArm(label, dur, runSpec{models: profile.ImageSet(), slo: slo, workers: workers,
			method: MethodRAMSIS, variant: label, mutate: mut})
	}
	fld := func(d int) arm {
		return disc(fmt.Sprintf("FLD D=%d", d), func(c *core.Config) { c.Disc = core.FixedLength; c.D = d })
	}
	h.printf("Fig. 10 (§C): time discretization (image, SLO 150 ms, %d workers)\n", workers)
	series, _ := h.sweep("load(QPS)", loads, []arm{
		fld(2), fld(10), fld(100),
		disc("MD", func(c *core.Config) { c.Disc = core.ModelBased }),
	})
	h.printf("\n")
	h.plotSeries("Fig. 10: discretization (accuracy vs load)", series)
	h.saveResult("fig10", series)
	return series
}

// Fig11 reproduces §D: maximal vs variable batching. Variable batching's
// action space is far larger (Table 2) but selects the maximal batch in
// ~80% of decisions, so achieved accuracy is nearly identical. Run at 20
// workers to keep variable-batching policy generation tractable.
func (h *Harness) Fig11() Series {
	const slo, workers = 0.150, 20
	loads, dur := h.constLoads(loadRange(300, 1100, 400), loadRange(100, 1100, 200), []float64{300, 700})
	batching := func(label string, b core.Batching) arm {
		return constArm(label, dur, runSpec{models: profile.ImageSet(), slo: slo, workers: workers,
			method: MethodRAMSIS, variant: "batch-" + label,
			mutate: func(c *core.Config) { c.Batching = b; c.D = 50 },
			record: b == core.VariableBatching})
	}
	h.printf("Fig. 11 (§D): maximal vs variable batching (image, SLO 150 ms, %d workers)\n", workers)
	series, cells := h.sweep("load(QPS)", loads, []arm{
		batching("max", core.MaximalBatching),
		batching("variable", core.VariableBatching),
	})
	var maxBatchDecisions, totalDecisions int
	for li, load := range loads {
		log := cells[li][1].DecisionLog
		maxed := 0
		for _, d := range log {
			if d.Batch >= d.QueueLen || d.Batch >= profile.MaxSupportedBatch {
				maxed++
			}
		}
		if len(log) > 0 {
			h.printf("%10.5g  variable batching chose the maximal batch in %.1f%% of decisions\n",
				load, 100*float64(maxed)/float64(len(log)))
		}
		maxBatchDecisions += maxed
		totalDecisions += len(log)
	}
	if totalDecisions > 0 {
		h.printf("variable batching chose the maximal batch in %.1f%% of decisions (paper: ~80%%)\n",
			100*float64(maxBatchDecisions)/float64(totalDecisions))
	}
	h.printf("\n")
	h.plotSeries("Fig. 11: batching (accuracy vs load)", series)
	h.saveResult("fig11", series)
	return series
}

// Fig12 reproduces §E: ablating the model set to three models (the fastest,
// a medium, and a long-latency model from Fig. 3). RAMSIS keeps most of its
// accuracy with only three models and stays above Jellyfish+ throughout.
func (h *Harness) Fig12() Series {
	const slo, workers = 0.150, 60
	full := profile.ImageSet()
	three := profile.AblationImageSet()
	loads, dur := h.constLoads(loadRange(800, 3200, 800), loadRange(400, 3200, 400), []float64{1600, 3200})
	h.printf("Fig. 12 (§E): 3-model ablation (image, SLO 150 ms, %d workers)\n", workers)
	series, _ := h.sweep("load(QPS)", loads, []arm{
		constArm("RAMSIS", dur, runSpec{models: full, slo: slo, workers: workers, method: MethodRAMSIS}),
		constArm("JF+", dur, runSpec{models: full, slo: slo, workers: workers, method: MethodJF}),
		constArm("RAMSIS-3m", dur, runSpec{models: three, slo: slo, workers: workers, method: MethodRAMSIS}),
		constArm("JF+-3m", dur, runSpec{models: three, slo: slo, workers: workers, method: MethodJF}),
	})
	h.printf("\n")
	h.plotSeries("Fig. 12: model ablation (accuracy vs load)", series)
	h.saveResult("fig12", series)
	return series
}

// INFaaS reproduces §H: the INFaaS adaptation sweeps accuracy targets equal
// to each model's accuracy; because its objective minimizes latency (and
// thus accuracy) subject to the target, even its best target never beats
// RAMSIS. One sweep runs every target (rows) at every load (columns); a
// second runs RAMSIS at each load, and each load's best reported target is
// the INFaaS(best) point.
func (h *Harness) INFaaS() Series {
	const slo, workers = 0.150, 60
	models := profile.ImageSet()
	loads, dur := h.constLoads(loadRange(800, 3200, 800), loadRange(400, 3200, 400), []float64{1600})
	var targets []float64
	for _, p := range models.ParetoFront().Profiles {
		targets = append(targets, p.Accuracy)
	}
	var infaas []arm
	for _, load := range loads {
		infaas = append(infaas, arm{fmt.Sprintf("%g QPS", load), func(target float64) runSpec {
			s := constLoad(runSpec{models: models, slo: slo, workers: workers, method: MethodINFaaS}, load, dur)
			s.accTarget = target
			return s
		}})
	}
	h.printf("§H: INFaaS-adapted accuracy-target sweep (image, SLO 150 ms, %d workers)\n", workers)
	_, cells := h.sweep("target", targets, infaas)
	series, ram := h.sweep("load(QPS)", loads, []arm{
		constArm(MethodRAMSIS, dur, runSpec{models: models, slo: slo, workers: workers, method: MethodRAMSIS}),
	})
	for li, load := range loads {
		bestAcc, worstAcc, best := 0.0, 1.0, 0.0
		for ti, target := range targets {
			if met := cells[ti][li]; met.ViolationRate() < 0.05 {
				acc := met.AccuracyPerSatisfiedQuery()
				if acc > bestAcc {
					bestAcc, best = acc, target
				}
				worstAcc = min(worstAcc, acc)
			}
		}
		series.add(Point{X: load, Method: "INFaaS(best)", Accuracy: bestAcc})
		h.printf("%10.5g  best target %.4f: INFaaS(best) %.4f, INFaaS(worst) %.4f, RAMSIS %.4f\n",
			load, best, bestAcc, worstAcc, ram[li][0].AccuracyPerSatisfiedQuery())
	}
	h.printf("\n")
	h.plotSeries("Appendix H: INFaaS sweep (accuracy vs load)", series)
	h.saveResult("infaas", series)
	return series
}

// Greedy reproduces the §8 argument: selectors that greedily maximize
// accuracy for the *currently queued* queries (MDInference/ALERT style)
// ignore future arrivals, so under stochastic inter-arrival patterns they
// pay for their optimism in SLO violations that RAMSIS avoids.
func (h *Harness) Greedy() Series {
	const slo, workers = 0.150, 20
	models := profile.ImageSet()
	loads, dur := h.constLoads([]float64{300, 600, 900}, loadRange(150, 1050, 150), []float64{300, 900})
	h.printf("§8 greedy selection vs RAMSIS (image, SLO 150 ms, %d workers)\n", workers)
	series, _ := h.sweep("load(QPS)", loads, []arm{
		constArm(MethodRAMSIS, dur, runSpec{models: models, slo: slo, workers: workers, method: MethodRAMSIS}),
		constArm(MethodGreedy, dur, runSpec{models: models, slo: slo, workers: workers, method: MethodGreedy}),
	})
	h.printf("\n")
	h.saveResult("greedy", series)
	return series
}

// SQF reproduces §I: RAMSIS with shortest-queue-first balancing (policies
// generated from the Appendix I conditional-Poisson transitions, online
// routing to the shortest queue) against the default round-robin stack.
// Loads stay sub-critical: the appendix's λ_w(n) = ρ^K·μ approximation
// (from [18]) assumes light-to-moderate utilization and turns optimistic
// near saturation, which EXPERIMENTS.md documents.
func (h *Harness) SQF() Series {
	const slo, workers = 0.150, 8
	models := profile.ImageSet()
	loads, dur := h.constLoads([]float64{100, 200, 300}, loadRange(50, 350, 50), []float64{150, 300})
	h.printf("§I: round-robin vs shortest-queue-first RAMSIS (image, SLO 150 ms, %d workers)\n", workers)
	series, _ := h.sweep("load(QPS)", loads, []arm{
		constArm("RR", dur, runSpec{models: models, slo: slo, workers: workers, method: MethodRAMSIS}),
		constArm("SQF", dur, runSpec{models: models, slo: slo, workers: workers, method: MethodRAMSIS,
			variant: "sqf", mutate: func(c *core.Config) { c.Balancing = core.ShortestQueueFirst }}),
	})
	h.printf("\n")
	h.plotSeries("Appendix I: balancing (accuracy vs load)", series)
	h.saveResult("sqf", series)
	return series
}
