package bench

import (
	"math"
	"sort"
)

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value (mean of the middle two for even counts);
// 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

// quartiles returns the first and third quartile exactly as Python's
// statistics.quantiles(xs, n=4) does (the default "exclusive" method), the
// estimator the benchmark driver uses for run-to-run spread. It needs at
// least two samples; fewer return the lone sample (or 0) twice.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	if len(s) < 2 {
		if len(s) == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	const n = 4
	ld := len(s)
	at := func(i int) float64 {
		j := i * (ld + 1) / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := float64(i*(ld+1) - j*n)
		return (s[j-1]*(n-delta) + s[j]*delta) / n
	}
	return at(1), at(3)
}

// floorSum is the figure reported for a timing. reps holds, per repetition
// of the same work, the time of each of its pieces in order; the result is
// the sum over pieces of that piece's fastest repetition. ok is false when
// the repetitions do not all have the same number of pieces.
//
// Every repetition does identical work, so repetitions differ only by what
// the host adds, and it only ever adds. On this host that is contention in
// the memory hierarchy from other guests: over the same minutes an integer
// spin moved by 5 %, a pointer chase by 2x and the simulators by 25-40 %,
// between samples two seconds apart. Whole passes are rarely quiet then, but
// a 0.1-0.3 s piece often is in at least one of eight passes.
func floorSum(reps [][]float64) (sum float64, ok bool) {
	if len(reps) == 0 {
		return 0, false
	}
	for i := range reps[0] {
		fastest := reps[0][i]
		for _, rep := range reps[1:] {
			if len(rep) != len(reps[0]) {
				return 0, false
			}
			if rep[i] < fastest {
				fastest = rep[i]
			}
		}
		sum += fastest
	}
	return sum, true
}

// spread is the inter-quartile range as a share of the median, the
// steadiness figure the driver holds every end-to-end metric to.
func spread(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return math.Abs((q3 - q1) / m)
}

// percentile returns the p-th percentile (0..100) by linear interpolation
// between closest ranks; 0 for no samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	rank := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	return s[lo] + (s[hi]-s[lo])*(rank-float64(lo))
}
