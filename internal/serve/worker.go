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
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
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
// time either way. Its process's connection loop reads POST /infer and
// POST /healthz itself.
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
	return w.listen("", workerMux(w.Traces), []hotRoute{
		{line: "POST /infer", answer: func(hc *conn) error {
			status, out := w.infer(hc.out[:0], hc.body, hc.trace)
			hc.out = out
			return hc.answer(status, "", out)
		}},
		{line: "POST /healthz", answer: func(hc *conn) error { return hc.answer(http.StatusOK, "", nil) }},
	})
}

// workerMux is a worker's own cold routes, shared by both worker kinds:
// /healthz for any method and its trace ring.
func workerMux(traces *telemetry.TraceBuffer) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", healthz)
	mux.Handle("/debug/traces", traces.Handler())
	return mux
}

// healthz answers 200 to any method.
func healthz(rw http.ResponseWriter, _ *http.Request) { rw.WriteHeader(http.StatusOK) }

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
