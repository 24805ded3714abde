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
func (h *Histogram) Observe(v float64) { h.ObserveN(v, 1) }

// ObserveN records n samples of the same value: one bucket lookup, one add
// each to the bucket count and the total, and the n additions to the sum
// made on a local copy that one compare-and-swap publishes. Called from one
// goroutine it leaves the histogram exactly as n Observe(v) calls would, the
// sum identical to the bit; concurrent callers interleave their sums per
// call rather than per sample. n <= 0 records nothing.
func (h *Histogram) ObserveN(v float64, n int) {
	if n <= 0 {
		return
	}
	i := sort.SearchFloat64s(h.upper, v)
	h.counts[i].Add(uint64(n))
	h.total.Add(uint64(n))
	for {
		old := h.sum.bits.Load()
		sum := math.Float64frombits(old)
		for k := 0; k < n; k++ {
			sum += v
		}
		if h.sum.bits.CompareAndSwap(old, math.Float64bits(sum)) {
			break
		}
	}
	for {
		old := h.min.load()
		if v >= old || h.min.bits.CompareAndSwap(math.Float64bits(old), math.Float64bits(v)) {
			break
		}
	}
	for {
		old := h.max.load()
		if v <= old || h.max.bits.CompareAndSwap(math.Float64bits(old), math.Float64bits(v)) {
			break
		}
	}
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
	h.Observe(v)
	if traceID == "" {
		return
	}
	i := sort.SearchFloat64s(h.upper, v)
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
