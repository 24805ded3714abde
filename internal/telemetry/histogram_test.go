package telemetry

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"ramsis/internal/stats"
)

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram(DefaultLatencyBuckets())
	if h.Count() != 0 || h.Sum() != 0 || h.Mean() != 0 {
		t.Errorf("empty histogram: count %d sum %v mean %v", h.Count(), h.Sum(), h.Mean())
	}
	for _, p := range []float64{0, 50, 95, 100} {
		if q := h.Quantile(p); q != 0 {
			t.Errorf("empty Quantile(%v) = %v, want 0", p, q)
		}
	}
	if h.Min() != 0 || h.Max() != 0 {
		t.Errorf("empty min/max = %v/%v", h.Min(), h.Max())
	}
}

func TestHistogramSingleSample(t *testing.T) {
	h := NewHistogram(DefaultLatencyBuckets())
	h.Observe(0.3)
	for _, p := range []float64{0, 1, 50, 99, 100} {
		if q := h.Quantile(p); math.Abs(q-0.3) > 1e-12 {
			t.Errorf("single-sample Quantile(%v) = %v, want 0.3", p, q)
		}
	}
	if h.Min() != 0.3 || h.Max() != 0.3 || h.Mean() != 0.3 {
		t.Errorf("min/max/mean = %v/%v/%v", h.Min(), h.Max(), h.Mean())
	}
}

// TestHistogramBucketBoundary checks the Prometheus le contract: a sample
// equal to an upper bound counts in that bucket, one epsilon above spills
// into the next.
func TestHistogramBucketBoundary(t *testing.T) {
	h := NewHistogram([]float64{1, 2})
	h.Observe(1)                    // le="1"
	h.Observe(math.Nextafter(1, 2)) // le="2"
	h.Observe(2)                    // le="2"
	h.Observe(2.5)                  // +Inf
	var b bytes.Buffer
	h.write(&b, "x", "")
	out := b.String()
	for _, want := range []string{
		`x_bucket{le="1"} 1`,
		`x_bucket{le="2"} 3`,
		`x_bucket{le="+Inf"} 4`,
		`x_count 4`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

// TestHistogramQuantileVsExact compares the log-bucketed approximation to
// the exact stats.Percentile over the same samples: within a bucket the
// error is bounded by the 1.5x bucket growth.
func TestHistogramQuantileVsExact(t *testing.T) {
	h := NewHistogram(DefaultLatencyBuckets())
	var xs []float64
	for i := 1; i <= 5000; i++ {
		v := 0.0005 * float64(i) // 0.5 ms .. 2.5 s, uniform
		xs = append(xs, v)
		h.Observe(v)
	}
	for _, p := range []float64{10, 50, 90, 95, 99} {
		exact := stats.Percentile(xs, p)
		approx := h.Quantile(p)
		if rel := math.Abs(approx-exact) / exact; rel > 0.25 {
			t.Errorf("Quantile(%v) = %v, exact %v (rel err %.3f)", p, approx, exact, rel)
		}
	}
	if h.Quantile(0) != xs[0] || h.Quantile(100) != xs[len(xs)-1] {
		t.Errorf("edge quantiles %v/%v, want exact min/max %v/%v",
			h.Quantile(0), h.Quantile(100), xs[0], xs[len(xs)-1])
	}
}

func TestHistogramQuantileMonotone(t *testing.T) {
	h := NewHistogram(DefaultLatencyBuckets())
	for _, v := range []float64{0.001, 0.002, 0.004, 0.1, 0.1, 0.1, 1.5, 9} {
		h.Observe(v)
	}
	prev := math.Inf(-1)
	for p := 0.0; p <= 100; p += 5 {
		q := h.Quantile(p)
		if q < prev-1e-12 {
			t.Fatalf("Quantile(%v) = %v < Quantile(%v) = %v", p, q, p-5, prev)
		}
		prev = q
	}
}

// sameHistogram reports every difference between got and want: each bucket
// count, the count, Sum, Min and Max to the bit, and Quantile at 0.5 %
// steps.
func sameHistogram(t *testing.T, name string, got, want *Histogram) {
	t.Helper()
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for i := range want.counts {
		if g, w := got.counts[i].Load(), want.counts[i].Load(); g != w {
			t.Errorf("%s: bucket %d holds %d, want %d", name, i, g, w)
		}
	}
	if got.Count() != want.Count() {
		t.Errorf("%s: count %d, want %d", name, got.Count(), want.Count())
	}
	if !same(got.Sum(), want.Sum()) {
		t.Errorf("%s: sum %v (%#x), want %v (%#x)", name,
			got.Sum(), math.Float64bits(got.Sum()), want.Sum(), math.Float64bits(want.Sum()))
	}
	if !same(got.Min(), want.Min()) || !same(got.Max(), want.Max()) {
		t.Errorf("%s: min/max %v/%v, want %v/%v", name, got.Min(), got.Max(), want.Min(), want.Max())
	}
	for p := 0.0; p <= 100; p += 0.5 {
		if g, w := got.Quantile(p), want.Quantile(p); !same(g, w) {
			t.Errorf("%s: Quantile(%v) = %v, want %v", name, p, g, w)
		}
	}
}

// tallyValue draws a sample for the tally tests: mostly the previous value
// or a nearby one, as a decode run's slowly growing gaps are, and otherwise
// a bucket's upper bound exactly, one ulp either side of it, a value below
// the first bound or in the overflow bucket.
func tallyValue(rng *rand.Rand, upper []float64, prev float64) float64 {
	b := upper[rng.Intn(len(upper))]
	switch rng.Intn(8) {
	case 0, 1:
		return prev
	case 2:
		return prev * (1 + rng.Float64()*1e-3)
	case 3:
		return b
	case 4:
		return math.Nextafter(b, math.Inf(1))
	case 5:
		return math.Nextafter(b, 0)
	case 6:
		return upper[0] * rng.Float64()
	default:
		return upper[len(upper)-1] * (1 + 3*rng.Float64())
	}
}

// TestTallyMatchesObserve pins Tally's uncontended contract: staged through
// tallies, seeded random (v, n) sequences leave a histogram exactly as one
// Observe per sample leaves another — every bucket count, Sum, Min and Max
// to the bit, every Quantile. The sequences hit bucket bounds exactly and
// by one ulp, fall below the first bound and into the overflow bucket,
// include n = 0, and go through several tallies committed back to back,
// one of them with nothing staged, on a histogram that already holds
// samples.
func TestTallyMatchesObserve(t *testing.T) {
	upper := []float64{0.001, 0.01, 0.1, 1}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		got, want := NewHistogram(upper), NewHistogram(upper)
		for _, v := range []float64{0.3, 0.0042, 0.7} {
			got.Observe(v)
			want.Observe(v)
		}
		// A value leaving its bucket for the previous bucket's upper bound
		// must not stay in the cached bucket.
		tl := got.Tally()
		for _, v := range []float64{0.05, 0.01, 0.05, 0.1, 0.1000001} {
			tl.ObserveN(v, 2)
			want.Observe(v)
			want.Observe(v)
		}
		tl.Commit()
		empty := got.Tally()
		empty.ObserveN(0.5, 0)
		empty.Commit()
		v := 0.02
		for tallies := 0; tallies < 4; tallies++ {
			tl := got.Tally()
			for k := rng.Intn(40); k > 0; k-- {
				v = tallyValue(rng, upper, v)
				n := rng.Intn(12)
				tl.ObserveN(v, n)
				for ; n > 0; n-- {
					want.Observe(v)
				}
			}
			tl.Commit()
		}
		sameHistogram(t, fmt.Sprintf("seed %d", seed), got, want)
	}
}

// TestTallyConcurrent commits tallies from several goroutines at once (meant
// for the race detector, `make race`), each goroutine also calling Observe
// between a tally's start and its commit, so the sum's compare-and-swap
// fails at least that often. Counts, total, min and max must be exact and
// the sum right to rounding.
func TestTallyConcurrent(t *testing.T) {
	const goroutines, tallies = 8, 300
	upper := []float64{0.001, 0.01, 0.1, 1}
	h := NewHistogram(upper)
	want := make([]*Histogram, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		want[g] = NewHistogram(upper)
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g + 1)))
			v := 0.02
			for k := 0; k < tallies; k++ {
				tl := h.Tally()
				for j := rng.Intn(20); j > 0; j-- {
					v = tallyValue(rng, upper, v)
					n := rng.Intn(10)
					tl.ObserveN(v, n)
					for k := 0; k < n; k++ {
						want[g].Observe(v)
					}
				}
				h.Observe(v)
				want[g].Observe(v)
				tl.Commit()
			}
		}(g)
	}
	wg.Wait()
	var count uint64
	var sum float64
	lo, hi := math.Inf(1), math.Inf(-1)
	buckets := make([]uint64, len(upper)+1)
	for _, w := range want {
		count += w.Count()
		sum += w.Sum()
		lo, hi = min(lo, w.Min()), max(hi, w.Max())
		for i := range buckets {
			buckets[i] += w.counts[i].Load()
		}
	}
	for i, c := range buckets {
		if got := h.counts[i].Load(); got != c {
			t.Errorf("bucket %d holds %d, want %d", i, got, c)
		}
	}
	if h.Count() != count {
		t.Errorf("count %d, want %d", h.Count(), count)
	}
	if h.Min() != lo || h.Max() != hi {
		t.Errorf("min/max %v/%v, want %v/%v", h.Min(), h.Max(), lo, hi)
	}
	if rel := math.Abs(h.Sum()-sum) / sum; rel > 1e-12 {
		t.Errorf("sum %v, want %v (relative error %g)", h.Sum(), sum, rel)
	}
}

// BenchmarkHistogramObserve records eight equal samples one Observe at a
// time — the step loop's per-token cost for a batch of eight decoding
// sequences — and a decode run of 16 such steps, its gaps growing slowly,
// one Observe per sample against one Tally.
func BenchmarkHistogramObserve(b *testing.B) {
	h := NewHistogram(DefaultLatencyBuckets())
	b.Run("Observe-x8", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			v := float64(i%1000) / 1e4
			for k := 0; k < 8; k++ {
				h.Observe(v)
			}
		}
	})
	b.Run("Observe-16x8", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			v := float64(i%1000) / 1e4
			for k := 0; k < 16; k++ {
				for j := 0; j < 8; j++ {
					h.Observe(v + float64(k)*1e-7)
				}
			}
		}
	})
	b.Run("Tally-16x8", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			v := float64(i%1000) / 1e4
			t := h.Tally()
			for k := 0; k < 16; k++ {
				t.ObserveN(v+float64(k)*1e-7, 8)
			}
			t.Commit()
		}
	})
}

func TestHistogramRejectsUnsortedBuckets(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("unsorted buckets accepted")
		}
	}()
	NewHistogram([]float64{1, 1})
}

func TestLinearBuckets(t *testing.T) {
	got := LinearBuckets(1, 2, 3)
	want := []float64{1, 3, 5}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("LinearBuckets = %v, want %v", got, want)
		}
	}
}
