package experiments

import (
	"sort"

	"ramsis/internal/baselines"
	"ramsis/internal/core"
	"ramsis/internal/profile"
	"ramsis/internal/sim"
)

// Fig2Result quantifies the paper's motivating Fig. 2: under the same
// constant load and inter-arrival pattern, a load-granular scheme pins the
// throughput-sustaining model while RAMSIS opportunistically upgrades
// during arrival lulls.
type Fig2Result struct {
	// ModelShare maps method -> model -> fraction of decisions.
	ModelShare map[string]map[string]float64
	// UpgradeFraction is the fraction of RAMSIS decisions on models more
	// accurate than the load-granular choice.
	UpgradeFraction float64
	// Timeline is a short excerpt of RAMSIS's decision log.
	Timeline []sim.DecisionRecord
}

// Fig2 reproduces the Fig. 2 scenario: two workers, a load only the faster
// of the relevant models can sustain continuously, Poisson arrivals.
// The load-granular baseline (Jellyfish+-style) must select the sustaining
// model for every batch; RAMSIS selects higher-accuracy models during lulls
// with no additional SLO violations.
func (h *Harness) Fig2() Fig2Result {
	const workers, slo = 2, 0.150
	models := profile.ImageSet()
	dur := 20.0
	if h.scale() == scaleQuick {
		dur = 10
	}
	// Pick the load so that Jellyfish+'s choice is pinned well below the
	// most accurate feasible model: ~70% of mobilenet_v3_small's capacity.
	mb, _ := models.ByName("mobilenet_v3_small")
	load := 0.7 * float64(workers) * mb.ThroughputWithin(slo/2)
	jf := baselines.JellyfishPlus{Profiles: models, SLO: slo, Workers: workers}
	jfModel := models.Profiles[jf.ModelFor(load)]
	// The load-granular baseline and RAMSIS see the same arrivals.
	mets := h.runAll([]runSpec{
		constLoad(runSpec{models: models, slo: slo, workers: workers, method: MethodJF, record: true}, load, dur),
		constLoad(runSpec{models: models, slo: slo, workers: workers, method: MethodRAMSIS, record: true,
			variant: "fig2", mutate: func(c *core.Config) { c.D = 50 }}, load, dur),
	})
	mJ, mR := mets[0], mets[1]

	res := Fig2Result{ModelShare: map[string]map[string]float64{
		MethodRAMSIS: decisionShare(mR),
		MethodJF:     decisionShare(mJ),
	}}
	upgrades := 0
	for _, d := range mR.DecisionLog {
		p, _ := models.ByName(d.Model)
		if p.Accuracy > jfModel.Accuracy {
			upgrades++
		}
	}
	if len(mR.DecisionLog) > 0 {
		res.UpgradeFraction = float64(upgrades) / float64(len(mR.DecisionLog))
	}
	if len(mR.DecisionLog) > 12 {
		res.Timeline = mR.DecisionLog[:12]
	} else {
		res.Timeline = mR.DecisionLog
	}

	h.printf("Fig. 2: lull exploitation at constant load (%.0f QPS, %d workers, SLO %.0f ms)\n",
		load, workers, slo*1000)
	h.printf("load-granular choice: %s (accuracy %.2f%%)\n", jfModel.Name, jfModel.Accuracy*100)
	for _, method := range []string{MethodJF, MethodRAMSIS} {
		h.printf("%-8s decisions by model:", method)
		share := res.ModelShare[method]
		names := make([]string, 0, len(share))
		for n := range share {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			h.printf(" %s=%.1f%%", n, share[n]*100)
		}
		h.printf("\n")
	}
	h.printf("RAMSIS upgraded beyond the load-granular model in %.1f%% of decisions\n", res.UpgradeFraction*100)
	h.printf("violations: RAMSIS %.4f, JF+ %.4f\n", mR.ViolationRate(), mJ.ViolationRate())
	h.printf("timeline excerpt (RAMSIS):\n")
	for _, d := range res.Timeline {
		h.printf("  t=%7.3fs worker %d: %-20s batch=%d slack=%3.0fms\n",
			d.Time, d.Worker, d.Model, d.Batch, d.Slack*1000)
	}
	h.printf("\n")
	h.saveResult("fig2", res)
	return res
}

func decisionShare(m sim.Metrics) map[string]float64 {
	out := map[string]float64{}
	for _, d := range m.DecisionLog {
		out[d.Model]++
	}
	for k := range out {
		out[k] /= float64(len(m.DecisionLog))
	}
	return out
}
