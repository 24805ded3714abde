package telemetry

import (
	"fmt"
	"io"
	"math"
	"sort"
	"sync/atomic"
)

// DefaultLatencyBuckets returns the log-spaced bucket upper bounds used for
// latency histograms: 100 µs growing by 1.5× per bucket up to ~100 s of
// modeled time, which brackets everything from a balancer pick to a
// saturated tail latency. The slice is fresh per call so callers may keep
// or modify it.
func DefaultLatencyBuckets() []float64 {
	const base, growth = 1e-4, 1.5
	buckets := make([]float64, 35)
	v := base
	for i := range buckets {
		buckets[i] = v
		v *= growth
	}
	return buckets
}

// LinearBuckets returns count upper bounds start, start+width, ... — handy
// for small integral quantities like batch sizes.
func LinearBuckets(start, width float64, count int) []float64 {
	buckets := make([]float64, count)
	for i := range buckets {
		buckets[i] = start + float64(i)*width
	}
	return buckets
}

// Histogram is a fixed-bucket histogram safe for concurrent Observe. It
// tracks per-bucket counts, total count, sum, and exact min/max, and can
// answer approximate quantiles by linear interpolation inside the bucket
// holding the requested rank (exact at the edges thanks to min/max).
type Histogram struct {
	upper  []float64       // ascending bucket upper bounds; +Inf implicit
	counts []atomic.Uint64 // len(upper)+1, last is the overflow bucket
	total  atomic.Uint64
	sum    atomicFloat
	min    atomicFloat
	max    atomicFloat
	// exemplars holds the latest exemplar per bucket (nil slots until
	// ObserveExemplar hits the bucket); exposition appends them to the
	// _bucket lines in the OpenMetrics style.
	exemplars []atomic.Pointer[exemplar]
	// exSample counts ObserveExemplar calls for refresh sampling.
	exSample atomic.Uint64
}

// exemplar links one observed value to the trace that produced it, so a
// latency bucket on a dashboard can jump straight to a stitched trace.
type exemplar struct {
	traceID string
	value   float64
}

// NewHistogram builds a histogram over the given ascending upper bounds
// (+Inf is implicit and must not be included).
func NewHistogram(upper []float64) *Histogram {
	for i := 1; i < len(upper); i++ {
		if upper[i] <= upper[i-1] {
			panic(fmt.Sprintf("telemetry: histogram bounds not ascending at %d", i))
		}
	}
	h := &Histogram{
		upper:     append([]float64(nil), upper...),
		counts:    make([]atomic.Uint64, len(upper)+1),
		exemplars: make([]atomic.Pointer[exemplar], len(upper)+1),
	}
	h.min.store(math.Inf(1))
	h.max.store(math.Inf(-1))
	return h
}

// Observe records one sample. Bucket bounds are inclusive upper bounds, as
// in the Prometheus exposition format (le).
func (h *Histogram) Observe(v float64) { h.observe(v) }

// observe records one sample of v and returns its bucket.
func (h *Histogram) observe(v float64) (i int) {
	i = sort.SearchFloat64s(h.upper, v)
	h.counts[i].Add(1)
	h.total.Add(1)
	h.sum.add(v)
	h.min.lower(v)
	h.max.raise(v)
	return i
}

// Tally stages samples for one histogram on its caller's stack and
// publishes them with one Commit: a decode run's TBT gaps, many samples over
// few buckets. ObserveN searches only when a value leaves the current
// bucket, adds each run of same-bucket samples to that bucket's count as the
// run ends, and adds every sample to a local sum in order; Commit adds the
// total once, swaps in the sum with one compare-and-swap against the value
// Tally loaded, and updates Min and Max once.
//
// If nothing else changed the histogram's sum in between, the histogram ends
// exactly as one Observe per sample would leave it, Sum to the bit (for
// samples that are not NaN). Otherwise the swap fails and Commit adds the
// staged sum: counts, Min and Max stay exact and Sum is right to rounding.
// A Tally is not safe for concurrent use, but tallies on one histogram may
// commit concurrently.
type Tally struct {
	h      *Histogram
	start  uint64  // the sum's bits when the tally began
	sum    float64 // start plus every staged sample, added in order
	total  uint64
	i      int     // bucket of the current run
	lo, hi float64 // bucket i's bounds, (lo, hi]; empty before the first run
	run    uint64  // staged samples in bucket i, not yet added to its count
	min    float64
	max    float64
}

// Tally starts a tally on h.
func (h *Histogram) Tally() Tally {
	start := h.sum.bits.Load()
	return Tally{h: h, start: start, sum: math.Float64frombits(start),
		min: math.Inf(1), max: math.Inf(-1)}
}

// ObserveN stages n samples of v; n <= 0 stages nothing.
func (t *Tally) ObserveN(v float64, n int) {
	if n <= 0 {
		return
	}
	if !(v > t.lo && v <= t.hi) {
		t.flush()
		up := t.h.upper
		t.i = sort.SearchFloat64s(up, v)
		t.lo, t.hi = math.Inf(-1), math.Inf(1)
		if t.i > 0 {
			t.lo = up[t.i-1]
		}
		if t.i < len(up) {
			t.hi = up[t.i]
		}
	}
	t.run += uint64(n)
	t.total += uint64(n)
	sum := t.sum
	for k := 0; k < n; k++ {
		sum += v
	}
	t.sum = sum
	if v < t.min {
		t.min = v
	}
	if v > t.max {
		t.max = v
	}
}

// flush adds the current run to its bucket's count.
func (t *Tally) flush() {
	if t.run > 0 {
		t.h.counts[t.i].Add(t.run)
		t.run = 0
	}
}

// Commit publishes every staged sample to the histogram. The tally is spent
// afterwards: stage a new batch on a fresh Tally.
func (t *Tally) Commit() {
	if t.total == 0 {
		return
	}
	h := t.h
	t.flush()
	h.total.Add(t.total)
	if !h.sum.bits.CompareAndSwap(t.start, math.Float64bits(t.sum)) {
		h.sum.add(t.sum - math.Float64frombits(t.start))
	}
	h.min.lower(t.min)
	h.max.raise(t.max)
}

// ObserveExemplar records one sample and, when traceID is non-empty, tags
// the sample's bucket with it as its latest exemplar. The exposition then
// links the bucket to the trace (`... # {trace_id="..."} value`, the
// OpenMetrics exemplar syntax), so an anomalous latency bucket resolves to
// a concrete stitched trace instead of a statistics-only series.
//
// An empty bucket always takes the first exemplar it sees, so every hit
// bucket links to a trace; a populated bucket refreshes on a 1-in-16
// sample, because boxing a fresh exemplar per observation was a measurable
// share of the steady-state allocation profile.
func (h *Histogram) ObserveExemplar(v float64, traceID string) {
	i := h.observe(v)
	if traceID == "" {
		return
	}
	if h.exemplars[i].Load() != nil && h.exSample.Add(1)&0xf != 0 {
		return
	}
	h.exemplars[i].Store(&exemplar{traceID: traceID, value: v})
}

// Exemplar returns the latest exemplar recorded in the bucket holding v,
// or ok == false when that bucket has none.
func (h *Histogram) Exemplar(v float64) (traceID string, value float64, ok bool) {
	i := sort.SearchFloat64s(h.upper, v)
	ex := h.exemplars[i].Load()
	if ex == nil {
		return "", 0, false
	}
	return ex.traceID, ex.value, true
}

// Count returns the number of observed samples.
func (h *Histogram) Count() uint64 { return h.total.Load() }

// Sum returns the sum of observed samples.
func (h *Histogram) Sum() float64 { return h.sum.load() }

// Min returns the smallest observed sample, or 0 when empty.
func (h *Histogram) Min() float64 {
	if h.total.Load() == 0 {
		return 0
	}
	return h.min.load()
}

// Max returns the largest observed sample, or 0 when empty.
func (h *Histogram) Max() float64 {
	if h.total.Load() == 0 {
		return 0
	}
	return h.max.load()
}

// Mean returns the arithmetic mean of observed samples, or 0 when empty.
func (h *Histogram) Mean() float64 {
	n := h.total.Load()
	if n == 0 {
		return 0
	}
	return h.sum.load() / float64(n)
}

// Quantile returns the approximate p-th percentile (0 <= p <= 100),
// mirroring stats.Percentile's contract: 0 for an empty histogram, the
// exact min/max for p <= 0 / p >= 100, and for interior p the nearest-rank
// bucket with linear interpolation between the bucket's effective bounds.
// Concurrent Observes may shift the result by the in-flight samples.
func (h *Histogram) Quantile(p float64) float64 {
	n := h.total.Load()
	if n == 0 {
		return 0
	}
	min, max := h.min.load(), h.max.load()
	if p <= 0 {
		return min
	}
	if p >= 100 {
		return max
	}
	rank := uint64(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	lower := 0.0
	for i := range h.counts {
		c := h.counts[i].Load()
		if c > 0 && cum+c >= rank {
			upper := max
			if i < len(h.upper) && h.upper[i] < upper {
				upper = h.upper[i]
			}
			if lower < min {
				lower = min
			}
			if upper <= lower {
				return upper
			}
			return lower + (upper-lower)*float64(rank-cum)/float64(c)
		}
		cum += c
		if i < len(h.upper) {
			lower = h.upper[i]
		}
	}
	return max
}

// write emits the Prometheus histogram series: cumulative _bucket lines
// (with OpenMetrics-style exemplar suffixes where ObserveExemplar tagged
// the bucket), then _sum and _count.
func (h *Histogram) write(w io.Writer, name, labels string) {
	var cum uint64
	for i := range h.counts {
		cum += h.counts[i].Load()
		le := "+Inf"
		if i < len(h.upper) {
			le = formatFloat(h.upper[i])
		}
		bl := fmt.Sprintf("le=%q", le)
		if labels != "" {
			bl = labels + "," + bl
		}
		suffix := ""
		if ex := h.exemplars[i].Load(); ex != nil {
			suffix = fmt.Sprintf(" # {trace_id=%q} %s", ex.traceID, formatFloat(ex.value))
		}
		fmt.Fprintf(w, "%s %d%s\n", seriesName(name+"_bucket", bl), cum, suffix)
	}
	fmt.Fprintf(w, "%s %s\n", seriesName(name+"_sum", labels), formatFloat(h.Sum()))
	fmt.Fprintf(w, "%s %d\n", seriesName(name+"_count", labels), cum)
}
