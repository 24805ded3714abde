package serve

import (
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"ramsis/internal/llm"
	"ramsis/internal/sim"
	"ramsis/internal/telemetry"
)

// TestLLMWorkerStreamsWireTTFT drives one long-prefill request through a
// live worker and checks the stream's timing structure on the wire: the
// first token byte arrives after the prefill step but before the decode
// tail, so the client-measured TTFT is a real network measurement. The
// worker starts on the most accurate model and a fixed selector pins the
// fastest, so the first step boundary must also record a model switch.
func TestLLMWorkerStreamsWireTTFT(t *testing.T) {
	models := llm.BuiltinSet()
	const timeScale = 50.0
	w := NewLLMWorker(models, 8.0, timeScale, sim.FixedSelector(models.Fastest()))
	if err := w.Start(); err != nil {
		t.Fatal(err)
	}
	defer w.Stop()

	const prefill, decode = 2000, 5
	res, err := PostGenerate(http.DefaultClient, w.URL(), prefill, decode)
	if err != nil {
		t.Fatal(err)
	}
	if res.Tokens != decode {
		t.Fatalf("streamed %d token bytes, want %d", res.Tokens, decode)
	}
	fast := models.Models[models.Fastest()]
	if res.Summary.Model != fast.Name {
		t.Fatalf("served by %s, selector pinned %s", res.Summary.Model, fast.Name)
	}
	if res.Summary.Prefill != prefill || res.Summary.Decode != decode {
		t.Fatalf("summary echoes %d/%d, want %d/%d",
			res.Summary.Prefill, res.Summary.Decode, prefill, decode)
	}

	// The prefill fits one step, so the first token cannot arrive before
	// that step's modeled time has been slept through — on the wire and in
	// the worker's own summary alike.
	tau1 := fast.StepTime(prefill, 0, 0)
	if wire := res.TTFTWall * timeScale; wire < tau1*0.99 {
		t.Errorf("wire TTFT %.4fs modeled, below the prefill step time %.4fs", wire, tau1)
	}
	if res.Summary.TTFT < tau1*0.99 {
		t.Errorf("summary TTFT %.4fs, below the prefill step time %.4fs", res.Summary.TTFT, tau1)
	}
	// The remaining decode tokens each ride a later step: the stream must
	// stay open past the first byte for at least those steps' wall time.
	decodeTail := 0.0
	for i := 0; i < decode-1; i++ {
		decodeTail += fast.Beta0
	}
	if gap := res.LatencyWall - res.TTFTWall; gap*timeScale < decodeTail*0.9 {
		t.Errorf("stream closed %.4fs (modeled) after first token; decode tail needs >= %.4fs",
			gap*timeScale, decodeTail)
	}
	if res.Summary.Latency <= res.Summary.TTFT {
		t.Errorf("latency %.4f <= TTFT %.4f", res.Summary.Latency, res.Summary.TTFT)
	}
}

// TestLLMWorkerConcurrentRequestsShareTheBatch issues parallel requests
// and then checks the worker's /metrics exposition carries the LLM serving
// series with the switch recorded and every query counted.
func TestLLMWorkerConcurrentRequestsShareTheBatch(t *testing.T) {
	models := llm.BuiltinSet()
	w := NewLLMWorker(models, 8.0, 100, sim.FixedSelector(models.Fastest()))
	if err := w.Start(); err != nil {
		t.Fatal(err)
	}
	defer w.Stop()

	const n = 4
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = PostGenerate(http.DefaultClient, w.URL(), 300+50*i, 4)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}

	resp, err := http.Get(w.URL() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, name := range []string{
		"ramsis_llm_ttft_seconds",
		"ramsis_llm_tbt_seconds",
		"ramsis_llm_step_seconds",
		"ramsis_llm_tokens_total",
		"ramsis_llm_kv_usage",
		"ramsis_llm_model_switches_total",
		"ramsis_llm_steps_total",
		"ramsis_queries_total",
		"ramsis_query_latency_seconds",
	} {
		if !strings.Contains(text, name) {
			t.Errorf("/metrics missing %s", name)
		}
	}
	if !strings.Contains(text, `ramsis_queries_total 4`) {
		t.Errorf("expected 4 served queries in exposition")
	}
	if !strings.Contains(text, `ramsis_llm_model_switches_total 1`) {
		t.Errorf("expected exactly one model switch in exposition")
	}
}

// TestLLMWorkerRejectsOversizeFootprint pins both KV admission guards. A
// footprint no model's cache can hold is the client's error and answers 400
// before it queues; one that fits some model but not the serving one is
// rejected by the step loop with 503 instead of deadlocking the queue head.
func TestLLMWorkerRejectsOversizeFootprint(t *testing.T) {
	models := llm.BuiltinSet()
	w := NewLLMWorker(models, 8.0, 100, nil)
	w.KVCap = 256
	if err := w.Start(); err != nil {
		t.Fatal(err)
	}
	defer w.Stop()

	_, err := PostGenerate(http.DefaultClient, w.URL(), 500, 10)
	if err == nil {
		t.Fatal("oversize request served; want a KV-capacity rejection")
	}
	if !strings.Contains(err.Error(), "KV capacity") || !strings.Contains(err.Error(), "400") {
		t.Fatalf("unexpected rejection: %v", err)
	}
	// The worker stays healthy for requests that do fit.
	res, err := PostGenerate(http.DefaultClient, w.URL(), 100, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.Tokens != 3 {
		t.Fatalf("streamed %d tokens, want 3", res.Tokens)
	}

	// No selector pins the most accurate model, whose cache is the set's
	// smallest: a footprint between the two capacities passes the handler
	// and is turned away at the step boundary.
	big := models.Models[models.MostAccurate()].KVCapTokens + 100
	w2 := NewLLMWorker(models, 8.0, 100, nil)
	if err := w2.Start(); err != nil {
		t.Fatal(err)
	}
	defer w2.Stop()
	_, err = PostGenerate(http.DefaultClient, w2.URL(), big, 10)
	if err == nil || !strings.Contains(err.Error(), "KV capacity") || !strings.Contains(err.Error(), "503") {
		t.Fatalf("serving-model oversize: got %v, want a 503 KV-capacity rejection", err)
	}
	if res, err = PostGenerate(http.DefaultClient, w2.URL(), 100, 3); err != nil || res.Tokens != 3 {
		t.Fatalf("after a step-loop rejection: %d tokens, %v", res.Tokens, err)
	}
}

// TestLLMWorkerRejectsMalformedLengths pins /generate input handling: token
// lengths whose sum overflows int (which used to wrap negative, slip past
// the KV gate, and pin a never-finishing sequence at the FIFO head) and
// bodies past the size cap answer 400 without touching the batcher, and the
// same worker then serves a normal request.
func TestLLMWorkerRejectsMalformedLengths(t *testing.T) {
	w := NewLLMWorker(llm.BuiltinSet(), 8.0, 100, nil)
	if err := w.Start(); err != nil {
		t.Fatal(err)
	}
	defer w.Stop()

	for name, body := range map[string]string{
		"overflowing sum": `{"prefill":9223372036854775807,"decode":9223372036854775807}`,
		"huge decode":     `{"prefill":1,"decode":9223372036854775807}`,
		"oversize body":   `{"prefill":1,"decode":1` + strings.Repeat(" ", 2*maxGenerateBody) + `}`,
	} {
		resp, err := http.Post(w.URL()+"/generate", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}
	w.mu.Lock()
	idle, out := w.b.Idle(), w.b.Outstanding()
	w.mu.Unlock()
	if !idle || out != 0 {
		t.Fatalf("rejected requests reached the batcher: idle %v, outstanding tokens %d", idle, out)
	}

	res, err := PostGenerate(http.DefaultClient, w.URL(), 200, 4)
	if err != nil {
		t.Fatal(err)
	}
	if res.Tokens != 4 {
		t.Fatalf("streamed %d tokens, want 4", res.Tokens)
	}
}

// TestLLMWorkerTrailerCarriesBatcherVerdict pins the one SLO judgement on
// the wire path: the trailer's DeadlineMet is llm.Batcher.Finish's verdict
// (lat > SLO+1e-12), not a client-side re-comparison. One request on the
// fake clock takes exactly L modeled seconds; served again under an SLO of
// exactly L, and of L less half the tolerance — where a naive Latency > SLO
// disagrees with the batcher — the trailer must say what the batcher counted.
func TestLLMWorkerTrailerCarriesBatcherVerdict(t *testing.T) {
	models := llm.BuiltinSet()
	serveOne := func(slo float64) (GenSummary, float64) {
		const timeScale = 1e-3
		w := NewLLMWorker(models, slo, timeScale, sim.FixedSelector(models.Fastest()))
		var g *genStream
		clk := &replayClock{
			at:     wallOffsets([]float64{0}, timeScale),
			epoch:  time.Unix(0, 0),
			submit: func(int) { g = w.submit(GenRequest{Prefill: 700, Decode: 6}, "") },
			idle: func() bool {
				w.mu.Lock()
				defer w.mu.Unlock()
				return w.b.Idle()
			},
		}
		w.now, w.sleep = clk.Now, clk.Sleep
		if err := w.Start(); err != nil {
			t.Fatal(err)
		}
		defer w.Stop()
		clk.run()
		for range g.tok {
		}
		return g.sum, w.Telemetry.Counter(telemetry.MetricViolations).Value()
	}

	ref, _ := serveOne(8)
	L := ref.Latency
	if L <= 0 || !ref.DeadlineMet {
		t.Fatalf("reference run: latency %v, deadlineMet %v", L, ref.DeadlineMet)
	}
	for _, tc := range []struct {
		name string
		slo  float64
		met  bool
	}{
		{"latency == SLO", L, true},
		{"inside the tolerance", L - 5e-13, true}, // Latency > SLO here, yet not a violation
		{"past the tolerance", L - 1e-9, false},
	} {
		sum, violations := serveOne(tc.slo)
		if sum.Latency != L {
			t.Fatalf("%s: latency %v, reference run %v — the fake clock is not deterministic", tc.name, sum.Latency, L)
		}
		if sum.DeadlineMet != (violations == 0) {
			t.Errorf("%s: trailer deadlineMet=%v, batcher counted %v violations", tc.name, sum.DeadlineMet, violations)
		}
		if sum.DeadlineMet != tc.met {
			t.Errorf("%s: deadlineMet=%v, want %v", tc.name, sum.DeadlineMet, tc.met)
		}
	}
}
