// Package telemetry is the zero-dependency observability layer shared by
// the serving prototype and the simulator: a concurrency-safe metrics
// Registry (counters, gauges, log-bucketed latency histograms) exposed in
// Prometheus text format, per-query trace spans with a bounded ring buffer
// and JSONL export, and structured-logging / pprof wiring for the CLIs.
//
// Everything here is stdlib-only (per go.mod): the exposition writer emits
// the Prometheus text format directly, so a scraper, curl, or the golden
// test can consume /metrics without importing any client library. The same
// registry backs both the frontend's /stats JSON and /metrics, so the two
// views can never disagree.
package telemetry

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// metric is one exposable time series.
type metric interface {
	// write emits the series' sample lines. name is the family name and
	// labels the pre-rendered label set (`a="b",c="d"` or empty).
	write(w io.Writer, name, labels string)
}

// family is one named metric family: every series shares the name, TYPE,
// and HELP text and differs only in labels.
type family struct {
	name   string
	typ    string // "counter", "gauge", or "histogram"
	help   string
	series map[string]metric // keyed by rendered label set
}

// Registry is a concurrency-safe collection of metric families. The zero
// value is not usable; call NewRegistry. Lookup methods (Counter, Gauge,
// Histogram) return the existing series when one with the same name and
// labels is already registered, so instrumentation sites can call them
// without coordinating ownership.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: map[string]*family{}}
}

// labelKey renders variadic ("name", "value", ...) pairs into the canonical
// exposition label set, sorted by label name.
func labelKey(pairs []string) string {
	if len(pairs) == 0 {
		return ""
	}
	if len(pairs)%2 != 0 {
		panic("telemetry: label pairs must come as name, value")
	}
	type kv struct{ k, v string }
	kvs := make([]kv, 0, len(pairs)/2)
	for i := 0; i < len(pairs); i += 2 {
		kvs = append(kvs, kv{pairs[i], pairs[i+1]})
	}
	sort.Slice(kvs, func(i, j int) bool { return kvs[i].k < kvs[j].k })
	var b strings.Builder
	for i, p := range kvs {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(p.k)
		b.WriteString(`="`)
		b.WriteString(EscapeLabelValue(p.v))
		b.WriteByte('"')
	}
	return b.String()
}

// EscapeLabelValue escapes a label value per the Prometheus text exposition
// format: backslash, double-quote, and line feed become \\, \", and \n.
// Everything else — including UTF-8 beyond ASCII — passes through verbatim
// (the format is UTF-8; Go's %q would \u-escape it into something a
// Prometheus parser reads back as a literal backslash sequence).
func EscapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	b.Grow(len(v) + 2)
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// lookup returns the series for (name, labels), creating it with mk when
// absent. It panics when the name is already registered with another type:
// that is a programming error, not a runtime condition.
func (r *Registry) lookup(name, typ string, pairs []string, mk func() metric) metric {
	key := labelKey(pairs)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.families[name]
	if f == nil {
		f = &family{name: name, typ: typ, series: map[string]metric{}}
		r.families[name] = f
	}
	if f.typ != typ {
		panic(fmt.Sprintf("telemetry: %s registered as %s, requested as %s", name, f.typ, typ))
	}
	m := f.series[key]
	if m == nil {
		m = mk()
		f.series[key] = m
	}
	return m
}

// Help attaches HELP text to a family (created on first use if needed via
// the typed lookups; Help on an unknown name is remembered once the family
// is registered only if called after registration, so call it after).
func (r *Registry) Help(name, text string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f := r.families[name]; f != nil {
		f.help = text
	}
}

// Counter returns the counter series for name and label pairs, registering
// it on first use.
func (r *Registry) Counter(name string, labelPairs ...string) *Counter {
	return r.lookup(name, "counter", labelPairs, func() metric { return &Counter{} }).(*Counter)
}

// Gauge returns the gauge series for name and label pairs.
func (r *Registry) Gauge(name string, labelPairs ...string) *Gauge {
	return r.lookup(name, "gauge", labelPairs, func() metric { return &Gauge{} }).(*Gauge)
}

// GaugeFunc registers a gauge series whose value is read from fn at
// exposition time, so e.g. per-worker health marks are always live.
func (r *Registry) GaugeFunc(name string, fn func() float64, labelPairs ...string) {
	r.lookup(name, "gauge", labelPairs, func() metric { return &Gauge{fn: fn} })
}

// Histogram returns the histogram series for name and label pairs using the
// default latency buckets.
func (r *Registry) Histogram(name string, labelPairs ...string) *Histogram {
	return r.HistogramBuckets(name, nil, labelPairs...)
}

// HistogramBuckets returns the histogram series for name and label pairs
// with explicit bucket upper bounds (ascending; +Inf is implicit). A nil
// buckets slice selects DefaultLatencyBuckets.
func (r *Registry) HistogramBuckets(name string, buckets []float64, labelPairs ...string) *Histogram {
	return r.lookup(name, "histogram", labelPairs, func() metric {
		if buckets == nil {
			buckets = DefaultLatencyBuckets()
		}
		return NewHistogram(buckets)
	}).(*Histogram)
}

// WritePrometheus writes every registered family in Prometheus text
// exposition format, families sorted by name and series by label set, so
// the output is deterministic.
func (r *Registry) WritePrometheus(w io.Writer) {
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	for n := range r.families {
		names = append(names, n)
	}
	sort.Strings(names)
	// Snapshot the family/series structure — help text and series pointers
	// included, since lookup and Help write them under the lock — and read
	// the sample values atomically afterwards.
	type snap struct {
		name, typ, help string
		keys            []string
		series          []metric
	}
	snaps := make([]snap, 0, len(names))
	for _, n := range names {
		f := r.families[n]
		s := snap{name: f.name, typ: f.typ, help: f.help, keys: make([]string, 0, len(f.series))}
		for k := range f.series {
			s.keys = append(s.keys, k)
		}
		sort.Strings(s.keys)
		for _, k := range s.keys {
			s.series = append(s.series, f.series[k])
		}
		snaps = append(snaps, s)
	}
	r.mu.Unlock()

	for _, s := range snaps {
		if s.help != "" {
			fmt.Fprintf(w, "# HELP %s %s\n", s.name, s.help)
		}
		fmt.Fprintf(w, "# TYPE %s %s\n", s.name, s.typ)
		for i, k := range s.keys {
			s.series[i].write(w, s.name, k)
		}
	}
}

// Handler serves the registry in Prometheus text format (the /metrics
// endpoint).
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WritePrometheus(w)
	})
}

// formatFloat renders a sample value the way the exposition format expects.
func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// seriesName renders `name{labels}` (or bare name for empty labels).
func seriesName(name, labels string) string {
	if labels == "" {
		return name
	}
	return name + "{" + labels + "}"
}

// atomicFloat is a float64 updated with CAS on its bit pattern, shared by
// counters, gauges, and histogram sums.
type atomicFloat struct{ bits atomic.Uint64 }

func (a *atomicFloat) add(v float64) {
	for {
		old := a.bits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if a.bits.CompareAndSwap(old, nw) {
			return
		}
	}
}

// lower stores v if it is below the current value (or either is NaN), the
// histogram minimum's update.
func (a *atomicFloat) lower(v float64) {
	for {
		old := a.bits.Load()
		if v >= math.Float64frombits(old) || a.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// raise stores v if it is above the current value (or either is NaN), the
// histogram maximum's update.
func (a *atomicFloat) raise(v float64) {
	for {
		old := a.bits.Load()
		if v <= math.Float64frombits(old) || a.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

func (a *atomicFloat) store(v float64) { a.bits.Store(math.Float64bits(v)) }
func (a *atomicFloat) load() float64   { return math.Float64frombits(a.bits.Load()) }

// Counter is a monotonically increasing value, safe for concurrent use.
type Counter struct{ v atomicFloat }

// Add increases the counter by v (v must be non-negative; enforcing that at
// runtime is not worth a branch on the hot path).
func (c *Counter) Add(v float64) { c.v.add(v) }

// Inc increases the counter by one.
func (c *Counter) Inc() { c.v.add(1) }

// Value returns the current count.
func (c *Counter) Value() float64 { return c.v.load() }

func (c *Counter) write(w io.Writer, name, labels string) {
	fmt.Fprintf(w, "%s %s\n", seriesName(name, labels), formatFloat(c.Value()))
}

// Gauge is a value that can go up and down; with fn set its value is read
// from the callback at exposition time.
type Gauge struct {
	v  atomicFloat
	fn func() float64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.v.store(v) }

// Add adjusts the gauge by v (negative to decrease).
func (g *Gauge) Add(v float64) { g.v.add(v) }

// Value returns the current value (the callback's result for GaugeFunc
// series).
func (g *Gauge) Value() float64 {
	if g.fn != nil {
		return g.fn()
	}
	return g.v.load()
}

func (g *Gauge) write(w io.Writer, name, labels string) {
	fmt.Fprintf(w, "%s %s\n", seriesName(name, labels), formatFloat(g.Value()))
}

// CounterVec is a family of counters fanned out over the values of one
// label (plus optional fixed label pairs), with a lock-free fast path for
// label values already seen: per-tenant and per-shard hot paths hit a
// sync.Map load instead of the registry's mutex-guarded lookup.
type CounterVec struct {
	reg    *Registry
	name   string
	label  string
	fixed  []string
	series sync.Map // label value -> *Counter
}

// CounterVec returns a counter family for name keyed by label; fixedPairs
// are additional constant label pairs stamped on every series (e.g. the
// shard index). Two CounterVecs for the same name share the underlying
// registry series.
func (r *Registry) CounterVec(name, label string, fixedPairs ...string) *CounterVec {
	return &CounterVec{reg: r, name: name, label: label, fixed: fixedPairs}
}

// With returns the counter for one label value, registering it on first use.
func (v *CounterVec) With(value string) *Counter {
	if c, ok := v.series.Load(value); ok {
		return c.(*Counter)
	}
	pairs := append(append([]string{}, v.fixed...), v.label, value)
	c := v.reg.Counter(v.name, pairs...)
	actual, _ := v.series.LoadOrStore(value, c)
	return actual.(*Counter)
}

// GaugeVec is a family of gauges fanned out over the values of one label,
// mirroring CounterVec.
type GaugeVec struct {
	reg    *Registry
	name   string
	label  string
	fixed  []string
	series sync.Map // label value -> *Gauge
}

// GaugeVec returns a gauge family for name keyed by label with optional
// constant label pairs.
func (r *Registry) GaugeVec(name, label string, fixedPairs ...string) *GaugeVec {
	return &GaugeVec{reg: r, name: name, label: label, fixed: fixedPairs}
}

// With returns the gauge for one label value, registering it on first use.
func (v *GaugeVec) With(value string) *Gauge {
	if g, ok := v.series.Load(value); ok {
		return g.(*Gauge)
	}
	pairs := append(append([]string{}, v.fixed...), v.label, value)
	g := v.reg.Gauge(v.name, pairs...)
	actual, _ := v.series.LoadOrStore(value, g)
	return actual.(*Gauge)
}
