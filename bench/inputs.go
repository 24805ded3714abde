package bench

import (
	"math/rand"

	"ramsis/internal/dist"
	"ramsis/internal/sim"
)

// The benchmark draws every input itself from the seed, so a change to the
// program's own generators (internal/trace, internal/dist samplers) cannot
// move the workload it is judged on. Only the shapes come from the program:
// the Twitter rate curve and the token-length distributions' quantile
// functions.

// poissonArrivals samples ascending arrival times (seconds from 0) from a
// piecewise-constant rate curve: qps[i] holds for [i·interval, (i+1)·interval).
// Inter-arrival gaps are exponential at the interval's rate; a gap that
// crosses an interval boundary restarts at the boundary, as the paper's
// per-logged-load generator does.
func poissonArrivals(rng *rand.Rand, qps []float64, interval float64) []float64 {
	var total float64
	for _, r := range qps {
		total += r * interval
	}
	out := make([]float64, 0, int(total*1.02)+16)
	for i, rate := range qps {
		if rate <= 0 {
			continue
		}
		now, end := float64(i)*interval, float64(i+1)*interval
		for {
			now += rng.ExpFloat64() / rate
			if now >= end {
				break
			}
			out = append(out, now)
		}
	}
	return out
}

// tokenQueries annotates arrival times with prompt and output lengths drawn
// by inverse-CDF sampling from the class's length distributions.
func tokenQueries(rng *rand.Rand, arrivals []float64, in, out dist.LengthSampler) []sim.TokenQuery {
	qs := make([]sim.TokenQuery, len(arrivals))
	for i, t := range arrivals {
		// 1-Float64() is in (0, 1], the domain QuantileLen is defined on.
		qs[i] = sim.TokenQuery{
			ID:      i,
			Arrival: t,
			Prefill: in.QuantileLen(1 - rng.Float64()),
			Decode:  out.QuantileLen(1 - rng.Float64()),
		}
	}
	return qs
}

// weightedSequence draws n indices into weights, index i with probability
// weights[i]/Σweights.
func weightedSequence(rng *rand.Rand, n int, weights []float64) []int {
	var total float64
	for _, w := range weights {
		total += w
	}
	seq := make([]int, n)
	for i := range seq {
		u := rng.Float64() * total
		k := 0
		for k < len(weights)-1 && u >= weights[k] {
			u -= weights[k]
			k++
		}
		seq[i] = k
	}
	return seq
}
