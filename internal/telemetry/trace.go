package telemetry

import (
	"bufio"
	"encoding/json"
	"io"
	"math/rand/v2"
	"net/http"
	"sync"
)

// Span is one stage of a query's lifetime. Durations are modeled seconds,
// so simulator and prototype traces compare directly.
type Span struct {
	Stage   string  `json:"stage"`
	Seconds float64 `json:"seconds"`
}

// QueryTrace is the completed per-query trace: where the latency budget of
// one query went, stage by stage. Every response — and in particular every
// SLO violation — can be attributed to the stage that consumed the budget.
//
// In a sharded deployment one query leaves one fragment per process it
// crossed (gateway, shard frontend, worker), all carrying the same TraceID;
// Process names the recording process and Parent its upstream, so Stitch
// can reassemble the fragments into one tree offline or from the merged
// /debug/traces dump.
type QueryTrace struct {
	ID          int     `json:"id"`
	Arrival     float64 `json:"arrival"` // modeled seconds from start
	Worker      int     `json:"worker"`  // worker the batch ran on (-1 if none)
	Model       string  `json:"model"`
	Batch       int     `json:"batch"`
	LatencyMS   float64 `json:"latencyMs"` // end-to-end, modeled
	DeadlineMet bool    `json:"deadlineMet"`
	Error       string  `json:"error,omitempty"`
	Spans       []Span  `json:"spans"`
	// TraceID joins this fragment to the query's fragments from other
	// processes; empty on legacy single-process traces.
	TraceID string `json:"traceId,omitempty"`
	// Process names the process that recorded the fragment ("gateway",
	// "shard-1", "worker-3", "frontend", "sim").
	Process string `json:"process,omitempty"`
	// Parent is the upstream Process that handed the query over ("" for
	// the root fragment).
	Parent string `json:"parent,omitempty"`
	// Tenant and Shard attribute the fragment before any stitching.
	Tenant string `json:"tenant,omitempty"`
	Shard  int    `json:"shard,omitempty"`
	// Decision is the policy decision that dispatched this query, with the
	// inputs it saw and its predicted-vs-realized latency (nil for shed
	// queries and legacy traces).
	Decision *Decision `json:"decision,omitempty"`
}

// NewTraceID returns a 16-hex-digit random trace ID. IDs only need to be
// unique enough to join fragments within one plane's trace rings, so the
// runtime-seeded math/rand/v2 generator suffices — the previous
// crypto/rand read was a measurable per-query syscall at saturation.
// (The simulator derives deterministic IDs from query IDs instead.)
func NewTraceID() string {
	u := rand.Uint64()
	const digits = "0123456789abcdef"
	var b [16]byte
	for i := 15; i >= 0; i-- {
		b[i] = digits[u&0xf]
		u >>= 4
	}
	return string(b[:])
}

// Span returns the duration of the named stage and whether it is present.
func (t QueryTrace) Span(stage string) (float64, bool) {
	for _, s := range t.Spans {
		if s.Stage == stage {
			return s.Seconds, true
		}
	}
	return 0, false
}

// Record lands one fragment, with spans as its Spans, in a component's trace
// ring and its JSONL stream; either may be nil (not configured). The spans
// travel beside the trace, not in it, because escape analysis follows a
// struct as a whole: the ring keeps qt, and a span array inside it would
// move to the heap on every call. The ring copies the spans into its slot
// and the stream encodes a copy, so a caller's stack array stays there.
func Record(ring *TraceBuffer, w *TraceWriter, qt QueryTrace, spans []Span) {
	if ring != nil {
		ring.add(qt, spans)
	}
	if w != nil {
		qt.Spans = append([]Span(nil), spans...)
		_ = w.Write(qt)
	}
}

// TraceBuffer is a bounded ring of the most recent completed query traces,
// dumpable via its /debug/traces handler. Memory is fixed at capacity; a
// new trace overwrites the oldest once full.
type TraceBuffer struct {
	mu  sync.Mutex
	buf []QueryTrace
	// decs is slot-owned Decision storage: buf[i].Decision points at
	// decs[i] when set, so Add can copy a caller-reused decision without
	// retaining it.
	decs []Decision
	next int
	full bool
}

// DefaultTraceCapacity is the ring size serving layers use when the caller
// does not choose one.
const DefaultTraceCapacity = 256

// NewTraceBuffer returns a ring holding the last n traces (n <= 0 takes
// DefaultTraceCapacity).
func NewTraceBuffer(n int) *TraceBuffer {
	if n <= 0 {
		n = DefaultTraceCapacity
	}
	return &TraceBuffer{buf: make([]QueryTrace, n), decs: make([]Decision, n)}
}

// Add records a completed trace, evicting the oldest when full. The spans
// and the decision are copied into the evicted slot's own storage (spans
// grown only past their high-water mark), so callers may pass
// stack-allocated or reused buffers — the ring never retains caller
// memory.
func (b *TraceBuffer) Add(t QueryTrace) { b.add(t, t.Spans) }

// add records t with spans as its Spans (t.Spans is ignored).
func (b *TraceBuffer) add(t QueryTrace, spans []Span) {
	b.mu.Lock()
	slot := &b.buf[b.next]
	t.Spans = append(slot.Spans[:0], spans...)
	*slot = t
	if t.Decision != nil {
		b.decs[b.next] = *t.Decision
		slot.Decision = &b.decs[b.next]
	}
	b.next++
	if b.next == len(b.buf) {
		b.next = 0
		b.full = true
	}
	b.mu.Unlock()
}

// Len returns the number of buffered traces.
func (b *TraceBuffer) Len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.full {
		return len(b.buf)
	}
	return b.next
}

// Snapshot returns the buffered traces oldest-first. Spans and decisions
// are deep copies: Add reuses each slot's storage in place, so a shallow
// snapshot would mutate under the caller as new traces arrive.
func (b *TraceBuffer) Snapshot() []QueryTrace {
	b.mu.Lock()
	defer b.mu.Unlock()
	var out []QueryTrace
	if !b.full {
		out = append([]QueryTrace(nil), b.buf[:b.next]...)
	} else {
		out = make([]QueryTrace, 0, len(b.buf))
		out = append(out, b.buf[b.next:]...)
		out = append(out, b.buf[:b.next]...)
	}
	for i := range out {
		out[i].Spans = append([]Span(nil), out[i].Spans...)
		if out[i].Decision != nil {
			d := *out[i].Decision
			out[i].Decision = &d
		}
	}
	return out
}

// Handler serves the buffered traces as a JSON array (the /debug/traces
// endpoint).
func (b *TraceBuffer) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(b.Snapshot())
	})
}

// TraceWriter streams completed traces as JSONL (one JSON object per line)
// for offline analysis; it serializes concurrent writers.
type TraceWriter struct {
	mu  sync.Mutex
	enc *json.Encoder
}

// NewTraceWriter wraps w (typically the -trace-out file).
func NewTraceWriter(w io.Writer) *TraceWriter {
	return &TraceWriter{enc: json.NewEncoder(w)}
}

// Write appends one trace line.
func (t *TraceWriter) Write(qt QueryTrace) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.enc.Encode(qt)
}

// ReadTraces parses a JSONL trace stream (the -trace-out format) back into
// traces, in file order. Blank lines are skipped; a malformed line aborts
// with its error so silently truncated exports are caught.
func ReadTraces(r io.Reader) ([]QueryTrace, error) {
	var out []QueryTrace
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var qt QueryTrace
		if err := json.Unmarshal(line, &qt); err != nil {
			return nil, err
		}
		out = append(out, qt)
	}
	return out, sc.Err()
}
