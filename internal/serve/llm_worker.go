package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"ramsis/internal/llm"
	"ramsis/internal/sim"
	"ramsis/internal/telemetry"
)

// GenRequest is the LLM worker HTTP API request: generate Decode output
// tokens for a prompt of Prefill tokens.
type GenRequest struct {
	Prefill int `json:"prefill"`
	Decode  int `json:"decode"`
}

// GenSummary is the JSON trailer of a /generate stream, reported in modeled
// seconds (unscaled by TimeScale, like InferResponse.Latency). DeadlineMet
// is the batcher's SLO verdict (llm.Batcher.Finish), so a client counts
// violations without re-judging Latency against its own copy of the SLO.
type GenSummary struct {
	Model       string  `json:"model"`
	Prefill     int     `json:"prefill"`
	Decode      int     `json:"decode"`
	TTFT        float64 `json:"ttft"`
	Latency     float64 `json:"latency"`
	DeadlineMet bool    `json:"deadlineMet"`
}

// genStream is the handler's side of one in-flight /generate request, the
// tag its sequence carries through the batcher. The step loop writes sum and
// reject before closing tok; the handler reads them only after, which orders
// the accesses.
type genStream struct {
	traceID string
	// tok receives one send per generated token and is closed on
	// completion (or rejection). Capacity covers every token, so the step
	// loop never blocks on a slow reader.
	tok    chan struct{}
	sum    GenSummary
	reject string
}

// LLMWorker is an HTTP worker for the token-level workload: POST /generate
// runs the request through a continuous-batching step loop shared across
// all in-flight requests, streaming one byte per generated token (the
// client's first byte read is a real wire TTFT measurement) and closing
// with a newline-delimited JSON summary trailer. The scheduling — per-step
// admission under KV reservations, decode-first composition, chunked
// prefill, drain-then-switch model selection — is llm.Batcher, the very
// code the simulator's engine runs; this worker only supplies the clock:
// modeled time is wall time × TimeScale, and each step holds the batch for
// its modeled latency divided by TimeScale. Metrics are reported in modeled
// time either way, like the scalar Worker.
type LLMWorker struct {
	Models    llm.Set
	SLO       float64
	TimeScale float64
	// Selector picks each step's model from the worker's observable state
	// (llm.Selector; an llm.RangeSelector is asked only when its last
	// answer's range no longer holds); nil pins the most accurate model.
	Selector sim.ModelSelector
	// KVCap, when > 0, overrides every model's KV capacity in tokens.
	KVCap int
	// Name and Index mark this worker's trace fragments, as on Worker.
	Name  string
	Index int
	// process serves /metrics, whose LLM series (TTFT, TBT, step latency,
	// tokens, KV usage) share the simulator engine's names, and a fragment
	// per request (batch_wait, prefill, decode spans) at /debug/traces.
	// Its clock stamps arrivals and holds each step.
	process

	mu      sync.Mutex
	cond    *sync.Cond
	b       *llm.Batcher[*genStream]
	maxKV   int // largest KV capacity in the set: no request above it is servable
	stopped bool
}

// NewLLMWorker builds an LLM worker server (not yet started).
func NewLLMWorker(models llm.Set, slo, timeScale float64, sel sim.ModelSelector) *LLMWorker {
	return &LLMWorker{
		Models:    models,
		SLO:       slo,
		TimeScale: timeScale,
		Selector:  sel,
		Index:     -1,
	}
}

// Start validates the model set, listens on a random localhost port, and
// launches the step loop.
func (w *LLMWorker) Start() error {
	if err := w.Models.Validate(); err != nil {
		return err
	}
	models := w.Models.WithKVCap(w.KVCap)
	for _, m := range models.Models {
		w.maxKV = max(w.maxKV, m.KVCapTokens)
	}
	w.cond = sync.NewCond(&w.mu)
	w.defaults(&w.TimeScale)
	if w.Name == "" {
		w.Name = "llm-worker"
	}
	w.b = llm.NewBatcher[*genStream](models, w.SLO, w.Selector, w.Telemetry, max(w.Index, 0))
	if err := w.serve("", workerMux("/generate", w.handleGenerate, healthz, w.Traces)); err != nil {
		return err
	}
	w.onStop(w.halt)
	go w.loop()
	return nil
}

// halt stops the step loop and fails every in-flight request.
func (w *LLMWorker) halt() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.stopped = true
	for _, s := range w.b.Drain() {
		s.Tag.reject = "worker stopped"
		close(s.Tag.tok)
	}
	w.cond.Broadcast()
	return nil
}

// submit queues one request for the step loop, stamped with the current
// modeled time; it returns nil once the worker has stopped.
func (w *LLMWorker) submit(gr GenRequest, traceID string) *genStream {
	g := &genStream{traceID: traceID, tok: make(chan struct{}, max(gr.Decode, 1))}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.stopped {
		return nil
	}
	w.b.Push(llm.Request{ID: -1, Arrival: w.now(), Prefill: gr.Prefill, Decode: gr.Decode}, g)
	w.cond.Signal()
	return g
}

func (w *LLMWorker) handleGenerate(rw http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodPost {
		http.Error(rw, "POST required", http.StatusMethodNotAllowed)
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(rw, req.Body, maxRequestBody))
	if err != nil {
		http.Error(rw, err.Error(), http.StatusBadRequest)
		return
	}
	var gr GenRequest
	if err := json.Unmarshal(body, &gr); err != nil {
		http.Error(rw, err.Error(), http.StatusBadRequest)
		return
	}
	// Bounding each length first keeps the sum from overflowing. A footprint
	// no model's cache can hold is the client's error, not a queueing
	// outcome: refuse it before it reserves anything.
	if gr.Prefill > w.maxKV || gr.Decode > w.maxKV || max(gr.Prefill, 1)+max(gr.Decode, 1) > w.maxKV {
		http.Error(rw, fmt.Sprintf("request footprint (prefill %d + decode %d tokens) exceeds every model's KV capacity (largest %d)",
			gr.Prefill, gr.Decode, w.maxKV), http.StatusBadRequest)
		return
	}
	g := w.submit(gr, req.Header.Get("X-Trace-Id"))
	if g == nil {
		http.Error(rw, "worker stopped", http.StatusServiceUnavailable)
		return
	}

	// Stream one byte per generated token, flushing each so the client's
	// first byte is a real wire-level TTFT. Headers ride out with the first
	// token write.
	fl, _ := rw.(http.Flusher)
	rw.Header().Set("Content-Type", "application/octet-stream")
	streamed := 0
	for range g.tok {
		if _, err := rw.Write([]byte{'t'}); err != nil {
			return // client went away; the loop still finishes the sequence
		}
		if fl != nil {
			fl.Flush()
		}
		streamed++
	}
	if g.reject != "" && streamed == 0 {
		http.Error(rw, g.reject, http.StatusServiceUnavailable)
		return
	}
	trailer, err := json.Marshal(g.sum)
	if err != nil {
		return
	}
	_, _ = rw.Write(append(append(make([]byte, 0, len(trailer)+1), '\n'), trailer...))
}

// loop drives the batcher from the process's clock: run a step boundary,
// hold the batch for the step's modeled time, then land its tokens onto
// their streams. Every token is streamed as it lands, so Begin's horizon is
// now: one step per call.
func (w *LLMWorker) loop() {
	w.mu.Lock()
	defer w.mu.Unlock()
	for {
		for !w.stopped && w.b.Idle() {
			w.cond.Wait()
		}
		if w.stopped {
			return
		}
		now := w.now()
		end, rejected, ok := w.b.Begin(now, now)
		for _, s := range rejected {
			m := w.b.Model()
			s.Tag.reject = fmt.Sprintf("request footprint %d tokens exceeds model %s KV capacity %d",
				s.Tokens(), m.Name, m.KVCapTokens)
			close(s.Tag.tok)
		}
		if !ok {
			continue
		}
		w.mu.Unlock()
		w.sleep(end - now)
		w.mu.Lock()
		if w.stopped {
			return
		}
		end = w.now()
		batch := w.b.Running()
		for _, s := range w.b.Land(end) {
			s.Tag.tok <- struct{}{}
			if s.Done() {
				w.finish(s, batch, end)
			}
		}
	}
}

// finish records one served request and releases its handler.
func (w *LLMWorker) finish(s *llm.Seq[*genStream], batch int, end float64) {
	m := w.b.Model()
	lat, violated := w.b.Finish(s, end, s.Tag.traceID)
	qt := telemetry.QueryTrace{
		ID: -1, Worker: w.Index,
		Model: m.Name, Batch: batch,
		LatencyMS:   lat * 1000,
		DeadlineMet: !violated,
		TraceID:     s.Tag.traceID, Process: w.Name,
	}
	telemetry.Record(w.Traces, w.TraceWriter, qt, s.Spans(end))
	s.Tag.sum = GenSummary{
		Model:       m.Name,
		Prefill:     s.Prefill,
		Decode:      s.Decode,
		TTFT:        s.FirstTokenAt - s.Arrival,
		Latency:     lat,
		DeadlineMet: !violated,
	}
	close(s.Tag.tok)
}

// GenResult is the client-side view of one /generate stream: wall-clock
// wire measurements (seconds) alongside the worker's modeled-time summary.
// TTFTWall is the time from POST to the first streamed token byte — a real
// network measurement, not a server-reported figure.
type GenResult struct {
	TTFTWall    float64
	LatencyWall float64
	Tokens      int
	Summary     GenSummary
}

// PostGenerate issues one /generate call and consumes the token stream,
// timing the first byte (wire TTFT) and the full exchange.
func PostGenerate(c *http.Client, base string, prefill, decode int) (GenResult, error) {
	var res GenResult
	body, err := json.Marshal(GenRequest{Prefill: prefill, Decode: decode})
	if err != nil {
		return res, err
	}
	start := time.Now()
	resp, err := c.Post(base+"/generate", "application/json", bytes.NewReader(body))
	if err != nil {
		return res, err
	}
	defer resp.Body.Close()
	var first [1]byte
	if _, err := io.ReadFull(resp.Body, first[:]); err != nil {
		return res, fmt.Errorf("serve: /generate %s: empty stream: %w", resp.Status, err)
	}
	res.TTFTWall = time.Since(start).Seconds()
	rest, err := io.ReadAll(resp.Body)
	if err != nil {
		return res, err
	}
	res.LatencyWall = time.Since(start).Seconds()
	data := append(first[:1:1], rest...)
	if resp.StatusCode != http.StatusOK {
		return res, fmt.Errorf("serve: /generate %s: %s", resp.Status, bytes.TrimSpace(data))
	}
	i := bytes.IndexByte(data, '\n')
	if i < 0 {
		return res, fmt.Errorf("serve: /generate stream missing summary trailer")
	}
	res.Tokens = i
	if err := json.Unmarshal(data[i+1:], &res.Summary); err != nil {
		return res, fmt.Errorf("serve: /generate summary: %w", err)
	}
	return res, nil
}
