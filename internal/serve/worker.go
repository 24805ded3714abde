// Package serve is the client-server prototype of §6: a frontend process
// holding the load balancer, the per-worker queues, and per-worker model
// selectors — one dispatch loop, fed by live clients and by trace replay
// alike — plus worker servers that expose an HTTP inference API. The
// paper's workers run TorchServe; here a worker "executes inference" by
// holding the request for the profiled latency (plus optional jitter),
// which preserves every scheduling-relevant behaviour (§7.3.1 notes the
// simulator and implementation share the scheduling code and differ only in
// latency variance).
package serve

import (
	"bufio"
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"

	"ramsis/internal/profile"
	"ramsis/internal/sim"
	"ramsis/internal/telemetry"
)

// InferRequest is the worker HTTP API request: run a batch on a model.
type InferRequest struct {
	Model string `json:"model"`
	Batch int    `json:"batch"`
}

// InferResponse reports the realized inference latency in seconds
// (unscaled, i.e. in modeled time).
type InferResponse struct {
	Model   string  `json:"model"`
	Batch   int     `json:"batch"`
	Latency float64 `json:"latency"`
}

// maxRequestBody bounds the request body of both worker routes, /infer and
// /generate: an InferRequest is a model name and an integer, a GenRequest
// two integers. A longer body answers 400 and closes the connection.
const maxRequestBody = 4 << 10

// Worker is an HTTP inference worker: POST /infer holds the connection for
// the model's profiled batch latency. TimeScale > 1 compresses modeled time
// by that factor (a 300 ms inference sleeps 30 ms at TimeScale 10), letting
// tests exercise the full stack quickly; metrics are reported in modeled
// time either way. The worker serves every connection on its own loop
// (workerConn), without net/http's server.
type Worker struct {
	Profiles  profile.Set
	Latency   sim.LatencyModel
	TimeScale float64
	// Name is this worker's process name in trace fragments ("worker-3");
	// default "worker". A cluster names workers by their global index.
	Name string
	// Index is the worker's global index, stamped on its trace fragments
	// (-1 when unset).
	Index int
	// process serves /metrics (inference counts, latency, batch sizes) and
	// the fragments of batches dispatched with X-Trace-Id at /debug/traces.
	// Its clock holds each batch for the batch's inference latency.
	process

	mu      sync.Mutex
	rng     *rand.Rand
	infHist *telemetry.Histogram
	bsHist  *telemetry.Histogram
	// infCtr caches the per-model inference counters built at Start, so
	// the handler never takes the registry's lookup lock per request.
	infCtr map[string]*telemetry.Counter
	// prof indexes the loaded profiles by name; looked up with a []byte
	// key conversion, it resolves the fast-parsed model without copying
	// the name out of the request buffer.
	prof map[string]profile.Profile
	// conns are the connections the worker holds open; accept closes them
	// once Stop closes the listener.
	connMu sync.Mutex
	conns  map[net.Conn]struct{}
}

// NewWorker builds a worker server (not yet started).
func NewWorker(profiles profile.Set, lat sim.LatencyModel, timeScale float64, seed int64) *Worker {
	return &Worker{
		Profiles:  profiles,
		Latency:   lat,
		TimeScale: timeScale,
		Index:     -1,
		rng:       rand.New(rand.NewSource(seed)),
	}
}

// Start listens on a random localhost port and serves until Stop.
func (w *Worker) Start() error {
	w.defaults(&w.TimeScale)
	if w.Name == "" {
		w.Name = "worker"
	}
	w.infHist = w.Telemetry.Histogram(telemetry.MetricInferenceSeconds)
	w.bsHist = w.Telemetry.HistogramBuckets(telemetry.MetricBatchSize, telemetry.LinearBuckets(1, 1, 32))
	w.infCtr = make(map[string]*telemetry.Counter, len(w.Profiles.Profiles))
	w.prof = make(map[string]profile.Profile, len(w.Profiles.Profiles))
	for _, p := range w.Profiles.Profiles {
		w.infCtr[p.Name] = w.Telemetry.Counter(telemetry.MetricInferences, "model", p.Name)
		w.prof[p.Name] = p
	}
	w.Telemetry.Help(telemetry.MetricInferenceSeconds, "Realized inference latency per batch in modeled seconds.")
	w.Telemetry.Help(telemetry.MetricInferences, "Batches executed, by model.")
	mux := workerMux("POST /infer", refuseInfer, w.Traces)
	ln, err := w.listen("", mux)
	if err != nil {
		return err
	}
	// Cold requests run under ctx, so Stop ends a long one (a CPU profile).
	ctx, cancel := context.WithCancel(context.Background())
	w.conns = make(map[net.Conn]struct{})
	done := make(chan struct{})
	go func() {
		w.accept(ctx, ln, mux)
		close(done)
	}()
	w.onStop(func() error {
		cancel()
		err := ln.Close()
		<-done
		return err
	})
	return nil
}

// workerMux is a worker's own routes, shared by both worker kinds: its work
// route, /healthz for the frontends' health trackers, and its trace ring.
func workerMux(route string, work http.HandlerFunc, traces *telemetry.TraceBuffer) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc(route, work)
	mux.HandleFunc("/healthz", healthz)
	mux.Handle("/debug/traces", traces.Handler())
	return mux
}

// healthz answers 200 to any method.
func healthz(rw http.ResponseWriter, _ *http.Request) { rw.WriteHeader(http.StatusOK) }

// refuseInfer answers a POST /infer the connection loop left to the mux:
// 505 over HTTP/1.0, and 400 to a request line the loop does not read
// byte for byte (a query string, an absolute URI).
func refuseInfer(rw http.ResponseWriter, req *http.Request) {
	if !req.ProtoAtLeast(1, 1) {
		http.Error(rw, "HTTP/1.1 required", http.StatusHTTPVersionNotSupported)
		return
	}
	http.Error(rw, "request line must read "+inferLine, http.StatusBadRequest)
}

// accept serves each connection ln accepts on its own loop. Once ln
// closes, it closes every open connection and returns when their loops
// have.
func (w *Worker) accept(ctx context.Context, ln net.Listener, mux http.Handler) {
	var loops sync.WaitGroup
	for {
		c, err := ln.Accept()
		if err != nil {
			break
		}
		w.connMu.Lock()
		w.conns[c] = struct{}{}
		w.connMu.Unlock()
		loops.Add(1)
		go func() {
			defer loops.Done()
			(&workerConn{w: w, c: c, br: bufio.NewReader(c), mux: mux}).serve(ctx)
			w.connMu.Lock()
			delete(w.conns, c)
			w.connMu.Unlock()
		}()
	}
	w.connMu.Lock()
	for c := range w.conns {
		_ = c.Close()
	}
	w.connMu.Unlock()
	loops.Wait()
}

// infer is the worker's inference core: it resolves and
// validates one request body, draws the batch's latency, counts the batch,
// holds it for the latency on the process clock, records its trace
// fragments, and appends the answer to dst. The answer is the
// InferResponse with 200, or the error text with 400 (a body that does not
// decode, a batch outside the profile) or 404 (a model not loaded).
//
// The exact wire shape the dispatchers emit parses without encoding/json,
// and the model resolves from the request buffer by byte-keyed map lookup —
// the canonical p.Name then stands in for the request's model string
// everywhere downstream. Anything else falls back to the generic decoder.
func (w *Worker) infer(dst, body []byte, traceCtx string) (int, []byte) {
	var p profile.Profile
	var ok bool
	var batch int
	if mb, b2, fast := parseInferRequest(body); fast {
		p, ok = w.prof[string(mb)]
		batch = b2
		if !ok {
			return http.StatusNotFound, fmt.Appendf(dst, "model %q not loaded", mb)
		}
	} else {
		var ir InferRequest
		if err := json.Unmarshal(body, &ir); err != nil {
			return http.StatusBadRequest, append(dst, err.Error()...)
		}
		p, ok = w.Profiles.ByName(ir.Model)
		batch = ir.Batch
		if !ok {
			return http.StatusNotFound, fmt.Appendf(dst, "model %q not loaded", ir.Model)
		}
	}
	if batch < 1 || batch > p.MaxBatch() {
		return http.StatusBadRequest, fmt.Appendf(dst, "batch %d outside [1,%d]", batch, p.MaxBatch())
	}
	w.mu.Lock()
	lat := w.Latency.Latency(p, batch, w.rng)
	w.mu.Unlock()
	w.infCtr[p.Name].Inc()
	w.bsHist.Observe(float64(batch))
	w.sleep(lat)
	w.recordTraces(traceCtx, p.Name, batch, lat)
	return http.StatusOK, appendInferResponse(dst, p.Name, batch, lat)
}

// recordTraces emits the worker-side fragment of every trace the dispatch
// carried: X-Trace-Id holds the batch's whole trace context,
// "id1,id2,...;parent" — the comma-joined trace IDs plus the dispatching
// process's name — so Stitch hangs each fragment under the right frontend
// from a single header. The realized inference latency lands both in the
// worker's histogram (with the first trace as its exemplar) and as each
// fragment's single inference span.
func (w *Worker) recordTraces(header, model string, batch int, lat float64) {
	if header == "" {
		w.infHist.Observe(lat)
		return
	}
	header, parent, _ := strings.Cut(header, ";")
	first, _, _ := strings.Cut(header, ",")
	w.infHist.ObserveExemplar(lat, first)
	// Walk the comma-joined IDs with Cut instead of Split: the substrings
	// alias the header, and the span buffer is shared across fragments
	// because telemetry.Record copies the spans.
	var sp [1]telemetry.Span
	sp[0] = telemetry.Span{Stage: telemetry.StageInference, Seconds: lat}
	for rest := header; rest != ""; {
		var id string
		id, rest, _ = strings.Cut(rest, ",")
		if id == "" {
			continue
		}
		qt := telemetry.QueryTrace{
			ID: -1, Worker: w.Index,
			Model: model, Batch: batch,
			LatencyMS: lat * 1000,
			TraceID:   id, Process: w.Name, Parent: parent,
		}
		telemetry.Record(w.Traces, w.TraceWriter, qt, sp[:])
	}
}

// workerConn is one connection a worker serves: its reader, the mux that
// answers cold requests, and the current request's body and trace context,
// with the answer's scratch. Only its serve loop touches it.
type workerConn struct {
	w     *Worker
	c     net.Conn
	br    *bufio.Reader
	mux   http.Handler
	body  []byte
	trace string
	out   []byte // the answer's body
	wire  []byte // the answer: status line, Content-Length and body
}

// The request lines the loop reads itself (hot requests); every other
// request is cold.
const (
	inferLine  = "POST /infer HTTP/1.1"
	healthLine = "POST /healthz HTTP/1.1"
)

// serve reads and answers the connection's requests until a read, a write
// or a request's framing fails, then closes the connection. Hot requests
// are read by next and answered on the loop, and the connection stays
// open; a cold one is answered by cold, and the connection closes after it.
func (wc *workerConn) serve(ctx context.Context) {
	defer wc.c.Close()
	for {
		infer, hot, err := wc.route()
		if err != nil {
			return
		}
		if !hot {
			wc.cold(ctx)
			return
		}
		n, ok := wc.next()
		if !ok {
			return
		}
		status, out := http.StatusOK, wc.out[:0]
		if n > maxRequestBody {
			status, out = http.StatusBadRequest, append(out, "http: request body too large"...)
		} else if infer {
			status, out = wc.w.infer(out, wc.body, wc.trace)
		}
		wc.out = out
		wire := append(wc.wire[:0], "HTTP/1.1 "...)
		wire = strconv.AppendInt(wire, int64(status), 10)
		wire = append(wire, ' ')
		wire = append(wire, http.StatusText(status)...)
		wire = append(wire, "\r\nContent-Length: "...)
		wire = strconv.AppendInt(wire, int64(len(out)), 10)
		wire = append(wire, "\r\n\r\n"...)
		wire = append(wire, out...)
		wc.wire = wire
		if _, err := wc.c.Write(wire); err != nil || n > maxRequestBody {
			return
		}
	}
}

// route peeks at the next request line one byte at a time, so that a short
// request is seen whole without waiting for bytes that may never come. hot
// reports a line the loop reads itself, which route then discards (infer
// tells /infer from /healthz); a cold line stays unread.
func (wc *workerConn) route() (infer, hot bool, err error) {
	for n := 1; ; n++ {
		b, err := wc.br.Peek(n)
		if err != nil {
			return false, false, err
		}
		if b[n-1] == '\n' {
			line := bytes.TrimSuffix(b[:n-1], []byte("\r"))
			infer = string(line) == inferLine
			if hot = infer || string(line) == healthLine; hot {
				_, err = wc.br.Discard(n)
			}
			return infer, hot, err
		}
		if !isPrefix(b, inferLine+"\r") && !isPrefix(b, healthLine+"\r") {
			return false, false, nil
		}
	}
}

// isPrefix reports whether b is a prefix of s.
func isPrefix(b []byte, s string) bool { return len(b) <= len(s) && string(b) == s[:len(b)] }

// next reads the header lines and body of the hot request whose line route
// read, bounded as exchange bounds an answer: header lines that each fit
// the reader's buffer, and a body of exactly Content-Length bytes (none
// without one), at most maxRequestBody, checked before the body buffer is
// sized. The body lands in wc.body and the X-Trace-Id value in wc.trace.
// n is the declared Content-Length: past maxRequestBody next stops there,
// the body unread, and the loop answers 400 and closes. ok is false on a
// read error and on framing the loop does not serve: a header line without
// a colon, Transfer-Encoding, a Content-Length that does not parse, or a
// second Content-Length that differs from the first.
func (wc *workerConn) next() (n int, ok bool) {
	n = -1
	wc.trace = ""
	for {
		h, err := readLine(wc.br)
		if err != nil {
			return 0, false
		}
		if len(h) == 0 {
			break
		}
		key, val, found := bytes.Cut(h, []byte(":"))
		if !found {
			return 0, false
		}
		val = bytes.TrimSpace(val)
		switch {
		case bytes.EqualFold(key, []byte("Content-Length")):
			v, err := strconv.Atoi(string(val))
			if err != nil || v < 0 || n >= 0 && v != n {
				return 0, false
			}
			if n = v; n > maxRequestBody {
				return n, true
			}
		case bytes.EqualFold(key, []byte("Transfer-Encoding")):
			return 0, false
		case bytes.EqualFold(key, []byte("X-Trace-Id")):
			wc.trace = string(val)
		}
	}
	n = max(n, 0)
	wc.body = slices.Grow(wc.body[:0], n)[:n]
	_, err := io.ReadFull(wc.br, wc.body)
	return n, err == nil
}

// cold answers a request route left unread through the worker's mux, under
// ctx, which Stop cancels. net/http's parser reads the request over a bound
// of http.DefaultMaxHeaderBytes, net/http's own header bound; a request it
// refuses closes the connection unanswered. The answer is framed by
// Content-Length and Connection: close, and the connection closes after it.
func (wc *workerConn) cold(ctx context.Context) {
	req, err := http.ReadRequest(bufio.NewReader(io.LimitReader(wc.br, http.DefaultMaxHeaderBytes)))
	if err != nil {
		return
	}
	a := &coldAnswer{header: http.Header{}}
	wc.mux.ServeHTTP(a, req.WithContext(ctx))
	resp := &http.Response{
		StatusCode: cmp.Or(a.status, http.StatusOK), ProtoMajor: 1, ProtoMinor: 1,
		Header: a.header, Body: io.NopCloser(&a.body), ContentLength: int64(a.body.Len()),
		Close: true,
	}
	_ = resp.Write(wc.c)
}

// coldAnswer is the ResponseWriter a cold request's handler writes to: it
// keeps the header, the first status and the body until the handler returns.
type coldAnswer struct {
	header http.Header
	status int
	body   bytes.Buffer
}

func (a *coldAnswer) Header() http.Header { return a.header }

func (a *coldAnswer) WriteHeader(status int) {
	if a.status == 0 {
		a.status = status
	}
}

func (a *coldAnswer) Write(b []byte) (int, error) {
	a.WriteHeader(http.StatusOK)
	return a.body.Write(b)
}
