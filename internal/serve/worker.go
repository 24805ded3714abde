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
// two integers. A longer body answers 400 and closes the connection (on a
// taken-over connection it closes the connection unanswered).
const maxRequestBody = 4 << 10

// dispatchHeader marks a request written by the plane's own dispatcher
// (exchange writes it on every request, with the value 1). A scalar worker
// takes the connection of a marked POST /infer or /healthz over from
// net/http and serves it itself (Worker.takeOver).
const dispatchHeader = "X-Dispatch"

// Worker is an HTTP inference worker: POST /infer holds the connection for
// the model's profiled batch latency. TimeScale > 1 compresses modeled time
// by that factor (a 300 ms inference sleeps 30 ms at TimeScale 10), letting
// tests exercise the full stack quickly; metrics are reported in modeled
// time either way. A dispatcher's connection leaves net/http after its
// first request (takeOver); every other client stays on net/http.
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
	// taken are the connections taken over from net/http, which
	// http.Server.Close no longer reaches; Stop closes and joins them.
	taken takenConns
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
	// Registered before serve, so Stop runs it after the server's Close:
	// no connection is accepted, and so none taken over, while it runs.
	w.onStop(w.taken.close)
	return w.serve("", workerMux("/infer", w.handleInfer, w.handleHealthz, w.Traces))
}

// workerMux is a worker's own routes, shared by both worker kinds: its work
// route, /healthz for the frontends' health trackers, and its trace ring.
func workerMux(route string, work, health http.HandlerFunc, traces *telemetry.TraceBuffer) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc(route, work)
	mux.HandleFunc("/healthz", health)
	mux.Handle("/debug/traces", traces.Handler())
	return mux
}

// healthz answers 200 to any method.
func healthz(rw http.ResponseWriter, _ *http.Request) { rw.WriteHeader(http.StatusOK) }

// dispatched reports whether req carries the dispatcher's mark.
func dispatched(req *http.Request) bool { return len(req.Header[dispatchHeader]) > 0 }

func (w *Worker) handleHealthz(rw http.ResponseWriter, req *http.Request) {
	if req.Method == http.MethodPost && dispatched(req) {
		w.takeOver(rw, req, false)
		return
	}
	healthz(rw, req)
}

func (w *Worker) handleInfer(rw http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodPost {
		http.Error(rw, "POST required", http.StatusMethodNotAllowed)
		return
	}
	if dispatched(req) {
		w.takeOver(rw, req, true)
		return
	}
	// Read into a pooled scratch buffer: json.NewDecoder allocated its own
	// buffered reader per request, which dominated the worker-side
	// allocation profile at saturation.
	bp := bufPool.Get().(*[]byte)
	defer bufPool.Put(bp)
	buf, err := readAllInto((*bp)[:0], http.MaxBytesReader(rw, req.Body, maxRequestBody))
	*bp = buf[:0]
	if err != nil {
		http.Error(rw, err.Error(), http.StatusBadRequest)
		return
	}
	status, out := w.infer(buf[len(buf):], buf, req.Header.Get("X-Trace-Id"))
	if status != http.StatusOK {
		http.Error(rw, string(out), status)
		return
	}
	// Suppress the automatic Content-Type (sniffing) and Date headers:
	// the /infer wire is internal and header-minimal, and every response
	// header costs a client a parse allocation per POST.
	h := rw.Header()
	h["Content-Type"] = nil
	h["Date"] = nil
	_, _ = rw.Write(out)
}

// infer is the inference core both /infer paths share: it resolves and
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

// takeOver serves a dispatcher's connection outside net/http, whose
// per-request parsing, header maps and background reads were most of the
// worker hop. It reads the marked request's body as the handler would
// (a body over maxRequestBody is answered 400 by net/http and the
// connection is not taken), takes the connection, and answers that request
// and every later one itself (workerConn.serve) until the connection
// fails. infer tells /infer from /healthz.
func (w *Worker) takeOver(rw http.ResponseWriter, req *http.Request, infer bool) {
	wc := &workerConn{w: w, trace: req.Header.Get("X-Trace-Id")}
	body, err := readAllInto(nil, http.MaxBytesReader(rw, req.Body, maxRequestBody))
	if err != nil {
		http.Error(rw, err.Error(), http.StatusBadRequest)
		return
	}
	c, brw, err := rw.(http.Hijacker).Hijack()
	if err != nil {
		http.Error(rw, err.Error(), http.StatusInternalServerError)
		return
	}
	if !w.taken.add(c) {
		_ = c.Close()
		return
	}
	defer w.taken.done(c)
	wc.c, wc.br, wc.body = c, brw.Reader, body
	wc.serve(infer)
}

// workerConn is one connection a worker took over: its reader and the
// current request's body and trace context, with the answer's scratch.
// Only its serve loop touches it.
type workerConn struct {
	w     *Worker
	c     net.Conn
	br    *bufio.Reader
	body  []byte
	trace string
	out   []byte // the answer's body
	wire  []byte // the answer: status line, Content-Length and body
}

// serve answers the request takeOver read, then reads and answers the
// connection's next request, until a read, a write or a request's framing
// fails; then it closes the connection.
func (wc *workerConn) serve(infer bool) {
	defer wc.c.Close()
	for {
		status, out := http.StatusOK, wc.out[:0]
		if infer {
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
		if _, err := wc.c.Write(wire); err != nil {
			return
		}
		var ok bool
		if infer, ok = wc.next(); !ok {
			return
		}
	}
}

// next reads the connection's next request, bounded as exchange bounds an
// answer: a request line and header lines that each fit the reader's
// buffer, and a body of exactly Content-Length bytes (none without one),
// at most maxRequestBody, checked before the body buffer is sized. The body
// lands in wc.body and the X-Trace-Id value in wc.trace; infer tells
// /infer from /healthz. ok is false on a read error and on a request the
// loop does not serve: any request line but a POST of /infer or /healthz
// over HTTP/1.1, a header line without a colon, Transfer-Encoding, or a
// Content-Length that does not parse or exceeds maxRequestBody.
func (wc *workerConn) next() (infer, ok bool) {
	line, err := readLine(wc.br)
	if err != nil {
		return false, false
	}
	switch string(line) {
	case "POST /infer HTTP/1.1":
		infer = true
	case "POST /healthz HTTP/1.1":
	default:
		return false, false
	}
	n := 0
	wc.trace = ""
	for {
		h, err := readLine(wc.br)
		if err != nil {
			return false, false
		}
		if len(h) == 0 {
			break
		}
		key, val, found := bytes.Cut(h, []byte(":"))
		if !found {
			return false, false
		}
		val = bytes.TrimSpace(val)
		switch {
		case bytes.EqualFold(key, []byte("Content-Length")):
			n, err = strconv.Atoi(string(val))
			if err != nil || n < 0 || n > maxRequestBody {
				return false, false
			}
		case bytes.EqualFold(key, []byte("Transfer-Encoding")):
			return false, false
		case bytes.EqualFold(key, []byte("X-Trace-Id")):
			wc.trace = string(val)
		}
	}
	wc.body = slices.Grow(wc.body[:0], n)[:n]
	_, err = io.ReadFull(wc.br, wc.body)
	return infer, err == nil
}

// takenConns tracks a worker's taken-over connections. close closes each,
// waits for its serve loop to return, and refuses every connection taken
// after it.
type takenConns struct {
	mu     sync.Mutex
	open   map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// add registers c, unless close has run.
func (t *takenConns) add(c net.Conn) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return false
	}
	if t.open == nil {
		t.open = make(map[net.Conn]struct{})
	}
	t.open[c] = struct{}{}
	t.wg.Add(1)
	return true
}

// done unregisters c once its loop has returned.
func (t *takenConns) done(c net.Conn) {
	t.mu.Lock()
	delete(t.open, c)
	t.mu.Unlock()
	t.wg.Done()
}

func (t *takenConns) close() error {
	t.mu.Lock()
	t.closed = true
	for c := range t.open {
		_ = c.Close()
	}
	t.mu.Unlock()
	t.wg.Wait()
	return nil
}
