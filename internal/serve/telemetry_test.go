package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"testing"

	"ramsis/internal/monitor"
	"ramsis/internal/profile"
	"ramsis/internal/sim"
	"ramsis/internal/telemetry"
)

// scrape fetches url and returns the body.
func scrape(t *testing.T, url string) string {
	t.Helper()
	resp, err := pipeClient.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// metricValue extracts the value of one exposition line whose series part
// (name plus optional label set) matches exactly.
func metricValue(t *testing.T, exposition, series string) float64 {
	t.Helper()
	sc := bufio.NewScanner(strings.NewReader(exposition))
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok || name != series {
			continue
		}
		f, err := strconv.ParseFloat(val, 64)
		if err != nil {
			t.Fatalf("series %s: bad value %q", series, val)
		}
		return f
	}
	t.Fatalf("series %s not found in exposition", series)
	return 0
}

// TestFrontendTelemetryAcceptance is the PR's acceptance test: after live
// queries complete, /metrics is a valid exposition carrying the required
// series, /stats agrees with /metrics on served/violation counts, and a
// completed query's trace holds all six span stages in order.
func TestFrontendTelemetryAcceptance(t *testing.T) {
	urls := startWorkers(t, 2, sim.Deterministic{}, 10)
	var jsonl bytes.Buffer
	f := &Frontend{
		Profiles: profile.ImageSet(), SLO: 0.150, TimeScale: 10, Workers: urls,
		Select:  fixedSelector("shufflenet_v2_x0_5"),
		Monitor: monitor.NewMovingAverage(0.5),
		process: process{TraceWriter: telemetry.NewTraceWriter(&jsonl), net: pipes},
	}
	if err := f.Start(); err != nil {
		t.Fatal(err)
	}
	defer f.Stop()

	const n = 12
	for i := 0; i < n; i++ {
		resp, err := pipeClient.Post(f.URL()+"/query", "application/json", strings.NewReader(`{}`))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}

	// /metrics carries the required series.
	exp := scrape(t, f.URL()+"/metrics")
	served := metricValue(t, exp, "ramsis_queries_total")
	violations := metricValue(t, exp, "ramsis_slo_violations_total")
	if served != n {
		t.Errorf("ramsis_queries_total = %v, want %d", served, n)
	}
	for _, stage := range telemetry.Stages() {
		series := fmt.Sprintf("ramsis_stage_seconds_count{stage=%q}", stage)
		if c := metricValue(t, exp, series); c != n {
			t.Errorf("%s = %v, want %d", series, c, n)
		}
	}
	for w := 0; w < 2; w++ {
		series := fmt.Sprintf("ramsis_worker_healthy{worker=\"%d\"}", w)
		if h := metricValue(t, exp, series); h != 1 {
			t.Errorf("%s = %v, want 1 (worker is up)", series, h)
		}
	}

	// /stats agrees with /metrics by construction.
	var stats StatsResponse
	if err := json.Unmarshal([]byte(scrape(t, f.URL()+"/stats")), &stats); err != nil {
		t.Fatal(err)
	}
	if float64(stats.Served) != served || float64(stats.Violations) != violations {
		t.Errorf("/stats served=%d violations=%d, /metrics %v / %v",
			stats.Served, stats.Violations, served, violations)
	}
	dispatched := 0
	for _, d := range stats.WorkerDispatches {
		dispatched += d
	}
	if dispatched == 0 {
		t.Error("no worker dispatches recorded")
	}

	// /debug/traces returns every completed query with all six stages.
	var traces []telemetry.QueryTrace
	if err := json.Unmarshal([]byte(scrape(t, f.URL()+"/debug/traces")), &traces); err != nil {
		t.Fatal(err)
	}
	if len(traces) != n {
		t.Fatalf("trace ring holds %d traces, want %d", len(traces), n)
	}
	for _, want := range telemetry.Stages() {
		if _, ok := traces[0].Span(want); !ok {
			t.Errorf("trace missing stage %q", want)
		}
	}
	for i, s := range traces[0].Spans {
		if s.Stage != telemetry.Stages()[i] {
			t.Errorf("span %d = %q, want %q", i, s.Stage, telemetry.Stages()[i])
		}
		if s.Seconds < 0 {
			t.Errorf("stage %s negative duration %v", s.Stage, s.Seconds)
		}
	}

	// The JSONL export carries the same traces, one object per line.
	lines := strings.Split(strings.TrimSpace(jsonl.String()), "\n")
	if len(lines) != n {
		t.Fatalf("trace JSONL has %d lines, want %d", len(lines), n)
	}
	var qt telemetry.QueryTrace
	if err := json.Unmarshal([]byte(lines[0]), &qt); err != nil {
		t.Fatalf("trace JSONL line does not parse: %v", err)
	}
	if len(qt.Spans) != len(telemetry.Stages()) {
		t.Errorf("exported trace has %d spans, want %d", len(qt.Spans), len(telemetry.Stages()))
	}

	// pprof is wired on the same mux.
	resp, err := pipeClient.Get(f.URL() + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/debug/pprof/ status %d", resp.StatusCode)
	}
}

// TestStatsRaceDuringDispatch hammers /stats and /metrics while live
// queries dispatch; under -race (make verify) this proves the collapsed
// snapshot path has no data race with the dispatch path.
func TestStatsRaceDuringDispatch(t *testing.T) {
	urls := startWorkers(t, 2, sim.Deterministic{}, 20)
	f := &Frontend{
		Profiles: profile.ImageSet(), SLO: 0.150, TimeScale: 20, Workers: urls,
		process: process{net: pipes},
		Select:  fixedSelector("shufflenet_v2_x0_5"),
		Monitor: monitor.NewMovingAverage(0.5),
	}
	if err := f.Start(); err != nil {
		t.Fatal(err)
	}
	defer f.Stop()

	stop := make(chan struct{})
	var scrapers sync.WaitGroup
	for i := 0; i < 4; i++ {
		scrapers.Add(1)
		go func() {
			defer scrapers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, path := range []string{"/stats", "/metrics", "/debug/traces"} {
					resp, err := pipeClient.Get(f.URL() + path)
					if err != nil {
						return // server shutting down
					}
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
			}
		}()
	}

	var wg sync.WaitGroup
	for i := 0; i < 24; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := pipeClient.Post(f.URL()+"/query", "application/json", strings.NewReader(`{}`))
			if err != nil {
				t.Error(err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}()
	}
	wg.Wait()
	close(stop)
	scrapers.Wait()

	s := f.Stats()
	if s.Served != 24 {
		t.Errorf("served %d, want 24", s.Served)
	}
}

// TestWorkerMetricsEndpoint verifies each worker serves its own registry.
func TestWorkerMetricsEndpoint(t *testing.T) {
	urls := startWorkers(t, 1, sim.Deterministic{}, 50)
	resp, err := pipeClient.Post(urls[0]+"/infer", "application/json",
		strings.NewReader(`{"model":"shufflenet_v2_x0_5","batch":3}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	exp := scrape(t, urls[0]+"/metrics")
	if v := metricValue(t, exp, `ramsis_worker_inferences_total{model="shufflenet_v2_x0_5"}`); v != 1 {
		t.Errorf("inference counter = %v, want 1", v)
	}
	if c := metricValue(t, exp, "ramsis_worker_inference_seconds_count"); c != 1 {
		t.Errorf("inference histogram count = %v, want 1", c)
	}
	if c := metricValue(t, exp, `ramsis_batch_size_bucket{le="3"}`); c != 1 {
		t.Errorf("batch size bucket le=3 = %v, want 1", c)
	}
}

// TestReplayTelemetry verifies the trace-replay path records the same
// registry series as live traffic and fills latency percentiles.
func TestReplayTelemetry(t *testing.T) {
	reg := telemetry.NewRegistry()
	c := startCluster(t, ClusterConfig{
		Models: profile.ImageSet(), Workers: 2, SLO: 0.150, TimeScale: 20,
		Select:    fixedSelector("shufflenet_v2_x0_5"),
		Telemetry: reg,
		Seed:      1,
	})
	arr := make([]float64, 16)
	for i := range arr {
		arr[i] = float64(i) * 0.01
	}
	m, err := c.Frontend.Replay(context.Background(), arr)
	if err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter(telemetry.MetricQueries).Value(); int(got) != m.Served {
		t.Errorf("registry served %v, metrics %d", got, m.Served)
	}
	if got := reg.Counter(telemetry.MetricViolations).Value(); int(got) != m.Violations {
		t.Errorf("registry violations %v, metrics %d", got, m.Violations)
	}
	for _, stage := range []string{telemetry.StageBatchWait, telemetry.StageDispatch, telemetry.StageInference, telemetry.StageRespond} {
		h := reg.Histogram(telemetry.MetricStageSeconds, "stage", stage)
		if h.Count() == 0 {
			t.Errorf("stage %q unrecorded on replay path", stage)
		}
	}
	if m.LatencyP50 <= 0 || m.LatencyP95 < m.LatencyP50 || m.LatencyP99 < m.LatencyP95 {
		t.Errorf("percentiles not monotone: p50=%v p95=%v p99=%v", m.LatencyP50, m.LatencyP95, m.LatencyP99)
	}
}
