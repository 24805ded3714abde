package core

import (
	"math"
	"math/rand"
	"testing"

	"ramsis/internal/dist"
	"ramsis/internal/profile"
)

// TestTransitionsMatchMonteCarlo validates the full-drain transition rows
// end to end against direct simulation of the per-worker arrival process:
// sample the round-robin phase from its interval-A posterior, replay
// Poisson central arrivals through the K-way round robin during the
// service time, and histogram the resulting (n', T_{j'}) states.
func TestTransitionsMatchMonteCarlo(t *testing.T) {
	cfg := Config{
		Models:   profile.ImageSet().Subset("shufflenet_v2_x0_5", "efficientnet_b0"),
		SLO:      0.150,
		Workers:  3,
		Arrival:  dist.NewPoisson(120),
		D:        10,
		MaxQueue: 6,
	}.withDefaults()
	sp, m := buildFor(t, cfg)
	rng := rand.New(rand.NewSource(99))
	lambda := cfg.Arrival.Rate()
	k := cfg.Workers

	const samples = 300000
	for _, cse := range []struct{ n, j int }{{1, 10}, {2, 6}, {4, 3}} {
		s := sp.index(cse.n, cse.j)
		acts := sp.actionsForState(s)
		for ai, a := range acts {
			// Phase posterior as the implementation computes it (validated
			// separately against the paper's denominator ratios).
			pr := phasePosterior(cfg.Arrival, k, cse.n, cfg.SLO-sp.grid[cse.j])
			counts := map[int]int{}
			for it := 0; it < samples; it++ {
				// Sample the phase.
				u := rng.Float64()
				r := 0
				for acc := pr[0]; u > acc && r < k-1; {
					r++
					acc += pr[r]
				}
				// Replay central arrivals during the service time; every
				// K-th (after the phase offset) goes to this worker.
				l := a.Latency
				tNow := 0.0
				central := r
				np := 0
				first := -1.0
				for {
					tNow += rng.ExpFloat64() / lambda
					if tNow > l {
						break
					}
					central++
					if central%k == 0 {
						np++
						if first < 0 {
							first = tNow
						}
						if np > cfg.MaxQueue {
							break
						}
					}
				}
				var next int
				switch {
				case np == 0:
					next = sp.emptyState()
				case np > cfg.MaxQueue:
					next = sp.overflowState()
				default:
					slack := cfg.SLO - (l - first)
					next = sp.index(np, sp.bucketOf(slack))
				}
				counts[next]++
			}
			got := successors(m, s, ai)
			for next, c := range counts {
				emp := float64(c) / samples
				// Monte Carlo noise: ~4 sigma of a binomial proportion,
				// floored for rarely-hit states.
				tol := 4*math.Sqrt(emp*(1-emp)/samples) + 3e-3
				if diff := math.Abs(got[next] - emp); diff > tol {
					t.Errorf("state(n=%d,j=%d) action %d -> state %d: P=%.5f, Monte Carlo %.5f (tol %.5f)",
						cse.n, cse.j, ai, next, got[next], emp, tol)
				}
			}
			// And states the chain never reached must carry ~no mass.
			for next, p := range got {
				if counts[next] == 0 && p > 2e-3 {
					t.Errorf("state(n=%d,j=%d) action %d: unreachable state %d has P=%.5f",
						cse.n, cse.j, ai, next, p)
				}
			}
		}
	}
}

// TestVariableBatchingMatchesMonteCarlo does the same for a partial-serve
// action (b < n): the remaining earliest query's slack comes from the
// order statistics of interval-A arrivals.
func TestVariableBatchingMatchesMonteCarlo(t *testing.T) {
	cfg := Config{
		Models:   profile.ImageSet().Subset("shufflenet_v2_x0_5", "efficientnet_b0"),
		SLO:      0.150,
		Workers:  2,
		Arrival:  dist.NewPoisson(100),
		D:        8,
		MaxQueue: 6,
		Batching: VariableBatching,
	}.withDefaults()
	sp, m := buildFor(t, cfg)
	rng := rand.New(rand.NewSource(7))
	lambda := cfg.Arrival.Rate()
	k := cfg.Workers

	const n, j = 3, 8
	s := sp.index(n, j)
	acts := sp.actionsForState(s)
	ta := cfg.SLO - sp.grid[j]
	const samples = 200000
	for ai, a := range acts {
		if a.Batch >= n {
			continue
		}
		pr := phasePosterior(cfg.Arrival, k, n, ta)
		counts := map[int]int{}
		for it := 0; it < samples; it++ {
			u := rng.Float64()
			r := 0
			for acc := pr[0]; u > acc && r < k-1; {
				r++
				acc += pr[r]
			}
			// Interval A: kA = (n-1)K + r central arrivals uniform in
			// (0, ta]; worker arrival #b is central arrival #bK.
			ka := (n-1)*k + r
			xs := make([]float64, ka)
			for i := range xs {
				xs[i] = rng.Float64() * ta
			}
			// Select the bK-th smallest.
			target := a.Batch * k
			x := kthSmallest(xs, target)
			slackNew := x + sp.grid[j] - a.Latency

			// Arrivals during service join behind the remaining queries.
			tNow := 0.0
			central := r
			extra := 0
			for {
				tNow += rng.ExpFloat64() / lambda
				if tNow > a.Latency {
					break
				}
				central++
				if central%k == 0 {
					extra++
				}
			}
			np := n - a.Batch + extra
			var next int
			if np > cfg.MaxQueue {
				next = sp.overflowState()
			} else {
				next = sp.index(np, sp.bucketOf(slackNew))
			}
			counts[next]++
		}
		got := successors(m, s, ai)
		for next, c := range counts {
			emp := float64(c) / samples
			// The implementation collapses the phase mixture to its mean
			// for the order-statistic part; allow a slightly wider margin.
			tol := 4*math.Sqrt(emp*(1-emp)/samples) + 8e-3
			if diff := math.Abs(got[next] - emp); diff > tol {
				t.Errorf("variable action %d (b=%d) -> state %d: P=%.5f, Monte Carlo %.5f",
					ai, a.Batch, next, got[next], emp)
			}
		}
	}
}

func kthSmallest(xs []float64, k int) float64 {
	// Small inputs: insertion sort is fine.
	for i := 1; i < len(xs); i++ {
		for q := i; q > 0 && xs[q] < xs[q-1]; q-- {
			xs[q], xs[q-1] = xs[q-1], xs[q]
		}
	}
	return xs[k-1]
}
