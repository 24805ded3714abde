package cli

import (
	"sort"

	"ramsis/internal/adapt"
	"ramsis/internal/admit"
	"ramsis/internal/sim"
)

// PrintServing prints the quality block every run summary shares: with
// admission control the offered/shed split and goodput, with a degrader its
// ladder statistics, then accuracy, violation rate and latency percentiles.
func (r *Run) PrintServing(m sim.Metrics, shedding bool, degrader *admit.Degrader) {
	if shedding {
		r.Printf("offered / shed:              %d / %d (shed rate %.4f%%)\n",
			m.Offered(), m.Shed, m.ShedRate()*100)
		r.Printf("goodput (in-SLO/offered):    %.4f%%\n", m.GoodputRate()*100)
	}
	if degrader != nil {
		st := degrader.Stats()
		r.Printf("degraded mode: final level %d, %d escalations, %d de-escalations, %d clamped decisions\n",
			st.Level, st.Escalations, st.Deescalations, m.DegradedDecisions)
	}
	r.Printf("accuracy/satisfied query:    %.4f\n", m.AccuracyPerSatisfiedQuery())
	r.Printf("latency SLO violation rate:  %.4f%%\n", m.ViolationRate()*100)
	r.Printf("latency p50/p95/p99 (ms):    %.1f / %.1f / %.1f\n",
		m.LatencyP50*1000, m.LatencyP95*1000, m.LatencyP99*1000)
}

// PrintLLM prints the token workload's quality block: the serving lines plus
// TTFT and TBT percentiles. tbt names the TBT statistic — the simulator sees
// every inter-token gap, a wire client only each stream's mean.
func (r *Run) PrintLLM(m sim.LLMMetrics, tbt string) {
	r.PrintServing(m.Metrics, false, nil)
	r.Printf("%-28s %.1f / %.1f / %.1f\n", "TTFT p50/p95/p99 (ms):",
		m.TTFTP50*1000, m.TTFTP95*1000, m.TTFTP99*1000)
	r.Printf("%-28s %.1f / %.1f / %.1f\n", tbt+" p50/p95/p99 (ms):",
		m.TBTP50*1000, m.TBTP95*1000, m.TBTP99*1000)
}

// PrintModelUsage prints per-model query counts, sorted by model name so a
// run's output is reproducible.
func (r *Run) PrintModelUsage(counts map[string]int) {
	names := make([]string, 0, len(counts))
	for name := range counts {
		names = append(names, name)
	}
	sort.Strings(names)
	r.Printf("model usage (queries):\n")
	for _, name := range names {
		r.Printf("  %-22s %d\n", name, counts[name])
	}
}

// PrintExpectation prints the generated policy's expected accuracy and
// violation rate (§5.1: a lower and an upper bound on the realized figures).
func (r *Run) PrintExpectation(accuracy, violation float64) {
	r.Printf("policy expectation:          accuracy %.4f, violation %.4f%%\n", accuracy, violation*100)
}

// PrintAdaptation prints the adaptation loop's counters; nothing without -adapt.
func (r *Run) PrintAdaptation(a *adapt.Adapter) {
	if !r.Adapt {
		return
	}
	s := a.Stats()
	r.Printf("adaptation: %d re-solves (%d failed, %d warm-started, last %d iterations), %d cache hits / %d misses, %d hot-swaps, final bucket %.0f QPS\n",
		s.Resolves, s.ResolveErrors, s.WarmStarts, s.LastResolveIterations, s.CacheHits, s.CacheMisses, s.Swaps, s.ActiveBucket)
}
