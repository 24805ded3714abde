// Package baselines implements the state-of-the-art load-granular MS&S
// schemes RAMSIS is evaluated against (§7 "Baseline MS&S Policies"):
// Jellyfish+ [32], ModelSwitching [57] (including its offline
// response-latency profiling), the INFaaS adaptation of Appendix H, and the
// greedy deadline-aware selector of §8 (MDInference/ALERT-style). Each is a
// sched.Selector, so the same value runs in sim.Engine (as a sim.Scheme
// with no balancer: eager workers on one central queue, the execution model
// the paper describes) and in serve.Frontend.
package baselines

import (
	"encoding/json"
	"fmt"
	"math"

	"ramsis/internal/profile"
	"ramsis/internal/sched"
	"ramsis/internal/sim"
	"ramsis/internal/stats"
	"ramsis/internal/trace"
)

// LoadGranular is the selector the load-granular baselines share: the model
// modelFor picks for the anticipated load, at the adaptive-batching cap [7]
// — the largest batch whose inference latency stays within half the SLO,
// anticipating worst-case central-queue wait (§7, Jellyfish+). The dispatch
// core caps the batch by the queue length.
func LoadGranular(models profile.Set, slo float64, modelFor func(load float64) int) sched.Selector {
	return func(_, load float64, _ int, _ float64) (string, int) {
		p := models.Profiles[modelFor(load)]
		return p.Name, max(p.MaxBatchWithin(slo/2), 1)
	}
}

// JellyfishPlus extends Jellyfish [32] with multi-worker load balancing:
// given an anticipated load it selects the most accurate model whose
// aggregate average throughput exceeds the load and whose inference latency
// stays below half the latency SLO.
type JellyfishPlus struct {
	Profiles profile.Set
	SLO      float64
	Workers  int
}

// ModelFor returns the Jellyfish+ selection for a load.
func (j JellyfishPlus) ModelFor(load float64) int {
	best, bestAcc := -1, math.Inf(-1)
	for i, p := range j.Profiles.Profiles {
		if p.BatchLatency(1) > j.SLO/2 {
			continue
		}
		tput := float64(j.Workers) * p.ThroughputWithin(j.SLO/2)
		if tput < load {
			continue
		}
		if p.Accuracy > bestAcc {
			best, bestAcc = i, p.Accuracy
		}
	}
	if best < 0 {
		best = fastestIndex(j.Profiles)
	}
	return best
}

// Selector serves each batch with the load-selected model.
func (j JellyfishPlus) Selector() sched.Selector { return LoadGranular(j.Profiles, j.SLO, j.ModelFor) }

// MSTable is ModelSwitching's offline profile: the p99 response latency of
// every model under every anticipated load on the evaluated resource
// configuration (§7: 400-4000 QPS on 20-100 workers).
type MSTable struct {
	Loads []float64   // ascending load rungs (QPS)
	P99   [][]float64 // [model][rung] p99 response latency (seconds)
}

// ProfileModelSwitching measures each model's response latency under each
// load rung by serving dur seconds of it with that model alone, at the
// load-granular batch cap — exactly the offline step §7 describes.
func ProfileModelSwitching(profiles profile.Set, slo float64, workers int, loads []float64, dur float64, seed int64) *MSTable {
	t := &MSTable{Loads: append([]float64(nil), loads...)}
	t.P99 = make([][]float64, profiles.Len())
	for mi := range profiles.Profiles {
		t.P99[mi] = make([]float64, len(loads))
		for li, load := range loads {
			p := profiles.Profiles[mi]
			// Loads beyond the model's aggregate throughput diverge; record
			// +Inf without simulating the pile-up.
			if float64(workers)*p.Throughput() < load {
				t.P99[mi][li] = math.Inf(1)
				continue
			}
			fixed := sim.Scheme{Select: LoadGranular(profiles, slo, func(float64) int { return mi })}
			e := sim.NewEngine(profiles, slo, workers, sim.Deterministic{}, fixed, seed+int64(mi*1000+li))
			e.CollectLatencies = true
			arr := trace.PoissonArrivals(trace.Constant(load, dur), seed+int64(li))
			m := e.Run(arr)
			t.P99[mi][li] = stats.Percentile(m.Latencies, 99)
		}
	}
	return t
}

// msTableFile is MSTable's JSON form. A diverging (model, rung) is +Inf in
// memory, which JSON cannot carry, and null in the file.
type msTableFile struct {
	Loads []float64
	P99   [][]*float64
}

// MarshalJSON writes the table with null for every diverging latency.
func (t MSTable) MarshalJSON() ([]byte, error) {
	f := msTableFile{Loads: t.Loads, P99: make([][]*float64, len(t.P99))}
	for mi, row := range t.P99 {
		f.P99[mi] = make([]*float64, len(row))
		for li := range row {
			if !math.IsInf(row[li], 1) {
				f.P99[mi][li] = &row[li]
			}
		}
	}
	return json.Marshal(f)
}

// UnmarshalJSON reads a table written by MarshalJSON. The file comes from
// outside the program, so a row that does not cover every load rung or holds
// a negative latency is an error rather than a selection made on garbage.
func (t *MSTable) UnmarshalJSON(data []byte) error {
	var f msTableFile
	if err := json.Unmarshal(data, &f); err != nil {
		return err
	}
	p99 := make([][]float64, len(f.P99))
	for mi, row := range f.P99 {
		if len(row) != len(f.Loads) {
			return fmt.Errorf("baselines: MS table model %d has %d latencies for %d loads", mi, len(row), len(f.Loads))
		}
		p99[mi] = make([]float64, len(row))
		for li, v := range row {
			switch {
			case v == nil:
				p99[mi][li] = math.Inf(1)
			case *v < 0: // NaN and ±Inf never get past the JSON decoder
				return fmt.Errorf("baselines: MS table model %d load %v: invalid p99 latency %v", mi, f.Loads[li], *v)
			default:
				p99[mi][li] = *v
			}
		}
	}
	t.Loads, t.P99 = f.Loads, p99
	return nil
}

// P99For returns the profiled p99 at the smallest rung covering the load
// (conservative), or +Inf when the load exceeds the profiled range.
func (t *MSTable) P99For(model int, load float64) float64 {
	for li, l := range t.Loads {
		if l >= load {
			return t.P99[model][li]
		}
	}
	return math.Inf(1)
}

// ModelSwitching [57] selects the most accurate model whose profiled p99
// response latency under the anticipated load is below the latency SLO.
type ModelSwitching struct {
	Profiles profile.Set
	SLO      float64
	Table    *MSTable
}

// ModelFor returns the ModelSwitching selection for a load.
func (m ModelSwitching) ModelFor(load float64) int {
	best, bestAcc := -1, math.Inf(-1)
	for i, p := range m.Profiles.Profiles {
		if m.Table.P99For(i, load) > m.SLO {
			continue
		}
		if p.Accuracy > bestAcc {
			best, bestAcc = i, p.Accuracy
		}
	}
	if best < 0 {
		best = fastestIndex(m.Profiles)
	}
	return best
}

// Selector serves each batch with the load-selected model.
func (m ModelSwitching) Selector() sched.Selector { return LoadGranular(m.Profiles, m.SLO, m.ModelFor) }

// Greedy is the deadline-greedy selector of §8 (MDInference [33] /
// ALERT [48] style): it picks the most accurate model that can serve the
// currently queued queries before the earliest deadline, ignoring future
// arrivals — which §8 argues is insufficient under stochastic inter-arrival
// patterns.
type Greedy struct {
	Profiles profile.Set
	SLO      float64
}

// Select chooses the most accurate model meeting the earliest deadline for
// the whole queue (falling back to the fastest model when none can). It
// reads neither the time nor the load: g.Select is the selector.
func (g Greedy) Select(_, _ float64, n int, slack float64) (string, int) {
	best, bestAcc := -1, math.Inf(-1)
	for i, p := range g.Profiles.Profiles {
		if p.BatchLatency(min(n, p.MaxBatch())) <= slack && p.Accuracy > bestAcc {
			best, bestAcc = i, p.Accuracy
		}
	}
	if best < 0 {
		best = fastestIndex(g.Profiles)
	}
	return g.Profiles.Profiles[best].Name, n
}

// INFaaSAdapted is the Appendix H adaptation of INFaaS [38]: given an
// accuracy SLO it selects the lowest-latency (lowest-cost) model meeting
// the accuracy target that can sustain the anticipated load within the
// latency SLO — the objective inversion that makes INFaaS minimize rather
// than maximize accuracy.
type INFaaSAdapted struct {
	Profiles  profile.Set
	SLO       float64
	Workers   int
	AccTarget float64
}

// ModelFor returns the INFaaS-style selection for a load.
func (f INFaaSAdapted) ModelFor(load float64) int {
	best := -1
	bestLat := math.Inf(1)
	for i, p := range f.Profiles.Profiles {
		if p.Accuracy < f.AccTarget {
			continue
		}
		if p.BatchLatency(1) > f.SLO/2 {
			continue
		}
		if float64(f.Workers)*p.ThroughputWithin(f.SLO/2) < load {
			continue
		}
		if l := p.BatchLatency(1); l < bestLat {
			best, bestLat = i, l
		}
	}
	if best < 0 {
		best = fastestIndex(f.Profiles)
	}
	return best
}

// Selector serves each batch with the selected model.
func (f INFaaSAdapted) Selector() sched.Selector { return LoadGranular(f.Profiles, f.SLO, f.ModelFor) }

func fastestIndex(s profile.Set) int {
	best, bestLat := 0, math.Inf(1)
	for i, p := range s.Profiles {
		if l := p.BatchLatency(1); l < bestLat {
			best, bestLat = i, l
		}
	}
	return best
}
