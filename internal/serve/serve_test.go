package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/url"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"ramsis/internal/adapt"
	"ramsis/internal/baselines"
	"ramsis/internal/core"
	"ramsis/internal/dist"
	"ramsis/internal/lb"
	"ramsis/internal/monitor"
	"ramsis/internal/profile"
	"ramsis/internal/sched"
	"ramsis/internal/sim"
	"ramsis/internal/telemetry"
	"ramsis/internal/trace"
)

// coverSelector is a serve path's selector over a policy ladder: §3.2.2's
// coverage adapter in the background, stopped with the test.
func coverSelector(t *testing.T, set *core.PolicySet) sched.Selector {
	a := adapt.NewCoverage(set, true, nil)
	t.Cleanup(a.Stop)
	return sched.AdaptiveSelector(a)
}

// startWorkers boots n image workers on the pipe network; the test's
// cleanup stops them.
func startWorkers(t *testing.T, n int, lat sim.LatencyModel, timeScale float64) []string {
	t.Helper()
	return startWorkersOn(t, pipes, n, lat, timeScale)
}

func startWorkersOn(t *testing.T, nw network, n int, lat sim.LatencyModel, timeScale float64) []string {
	t.Helper()
	urls := make([]string, n)
	for i := 0; i < n; i++ {
		w := NewWorker(profile.ImageSet(), lat, timeScale, int64(i+1))
		w.net = nw
		if err := w.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = w.Stop() })
		urls[i] = w.URL()
	}
	return urls
}

// startCluster boots a deployment for a replay test, on the pipe network
// unless cfg names another; the test's cleanup stops it.
func startCluster(t *testing.T, cfg ClusterConfig) *Cluster {
	t.Helper()
	if cfg.net == nil {
		cfg.net = pipes
	}
	c, err := StartCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Stop)
	return c
}

// TestWorkerInferAPI is the worker's smoke test over a real TCP port.
func TestWorkerInferAPI(t *testing.T) {
	urls := startWorkersOn(t, tcp{}, 1, sim.Deterministic{}, 50)
	resp, err := http.Post(urls[0]+"/infer", "application/json",
		strings.NewReader(`{"model":"shufflenet_v2_x0_5","batch":2}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %s", resp.Status)
	}
	var ir InferResponse
	if err := json.NewDecoder(resp.Body).Decode(&ir); err != nil {
		t.Fatal(err)
	}
	p, _ := profile.ImageSet().ByName("shufflenet_v2_x0_5")
	if math.Abs(ir.Latency-p.BatchLatency(2)) > 1e-9 {
		t.Errorf("reported latency %v, want profile %v", ir.Latency, p.BatchLatency(2))
	}
}

func TestWorkerRejectsBadRequests(t *testing.T) {
	urls := startWorkers(t, 1, sim.Deterministic{}, 50)
	cases := []struct {
		body string
		want int
	}{
		{`{"model":"nope","batch":1}`, http.StatusNotFound},
		{`{"model":"resnet50","batch":0}`, http.StatusBadRequest},
		{`{"model":"resnet50","batch":999}`, http.StatusBadRequest},
		{`not json`, http.StatusBadRequest},
	}
	for _, c := range cases {
		resp, err := pipeClient.Post(urls[0]+"/infer", "application/json", strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != c.want {
			t.Errorf("body %q: status %d, want %d", c.body, resp.StatusCode, c.want)
		}
	}
	resp, err := pipeClient.Get(urls[0] + "/infer")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /infer = %d, want 405", resp.StatusCode)
	}
	if resp, err = pipeClient.Get(urls[0] + "/healthz"); err != nil || resp.StatusCode != http.StatusOK {
		t.Errorf("healthz failed: %v %v", err, resp.StatusCode)
	}
	resp.Body.Close()
}

// TestWorkerFramesByContentLength pins the one response framing the
// dispatcher's /infer client reads: raw requests to a live worker must come
// back with Content-Length and no Transfer-Encoding, whatever the status,
// and every 200 body must be appendInferResponse's shape. A worker change
// that chunked its answers would otherwise cost the plane its latency
// attribution without failing anything.
func TestWorkerFramesByContentLength(t *testing.T) {
	u, err := url.Parse(startWorkers(t, 1, sim.Deterministic{}, 50)[0])
	if err != nil {
		t.Fatal(err)
	}
	post := func(body string) string {
		return "POST /infer HTTP/1.1\r\nHost: w\r\nContent-Length: " + strconv.Itoa(len(body)) + "\r\n\r\n" + body
	}
	for _, c := range []struct {
		req  string
		want int
	}{
		{post(`{"model":"shufflenet_v2_x0_5","batch":2}`), http.StatusOK},
		{post(`{"batch":2,"model":"shufflenet_v2_x0_5"}`), http.StatusOK},
		{post(`{"model":"shufflenet_v2_x0_5","batch":0}`), http.StatusBadRequest},
		{post(`{"model":"nope","batch":1}`), http.StatusNotFound},
		{"GET /infer HTTP/1.1\r\nHost: w\r\n\r\n", http.StatusMethodNotAllowed},
	} {
		conn, err := pipes.dial(u.Host)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write([]byte(c.req)); err != nil {
			t.Fatal(err)
		}
		resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
		if err != nil {
			t.Fatalf("%q: %v", c.req, err)
		}
		body, err := io.ReadAll(resp.Body)
		conn.Close()
		if err != nil {
			t.Fatalf("%q: reading body: %v", c.req, err)
		}
		if resp.StatusCode != c.want {
			t.Errorf("%q: status %d, want %d", c.req, resp.StatusCode, c.want)
		}
		if resp.Header.Get("Content-Length") == "" || len(resp.TransferEncoding) > 0 {
			t.Errorf("%q: framed by Content-Length %q, Transfer-Encoding %q; want Content-Length only",
				c.req, resp.Header.Get("Content-Length"), resp.TransferEncoding)
		}
		if _, ok := parseInferLatency(body); c.want == http.StatusOK && !ok {
			t.Errorf("%q: 200 body %q has no parseable latency", c.req, body)
		}
	}
}

// TestWorkerCapsInferBody posts a 1 MiB /infer body — a valid request
// padded with spaces, which the generic decoder would accept — and requires
// a 400 after the worker has read no more than the cap: the bytes allocated
// while it answers, and the pooled buffer it hands back, stay a small
// multiple of maxRequestBody rather than growing with the body.
func TestWorkerCapsInferBody(t *testing.T) {
	u, err := url.Parse(startWorkers(t, 1, sim.Deterministic{}, 50)[0])
	if err != nil {
		t.Fatal(err)
	}
	body := `{"model":"shufflenet_v2_x0_5","batch":1` + strings.Repeat(" ", 1<<20) + `}`
	req := []byte("POST /infer HTTP/1.1\r\nHost: w\r\nContent-Length: " + strconv.Itoa(len(body)) + "\r\n\r\n" + body)
	conn, err := pipes.dial(u.Host)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	// The worker stops reading at the cap, so the write runs beside the
	// read and ends when the worker closes the connection.
	go func() { _, _ = conn.Write(req) }()
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatal(err)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	runtime.ReadMemStats(&after)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("1 MiB body: status %d, want 400", resp.StatusCode)
	}
	if grown := after.TotalAlloc - before.TotalAlloc; grown > 64*maxRequestBody {
		t.Errorf("answering a 1 MiB body allocated %d bytes, want at most %d", grown, 64*maxRequestBody)
	}
	bp := bufPool.Get().(*[]byte)
	defer bufPool.Put(bp)
	if c := cap(*bp); c > 4*maxRequestBody {
		t.Errorf("pooled buffer kept %d bytes of capacity, want at most %d", c, 4*maxRequestBody)
	}
}

func TestPrototypeEndToEndRAMSIS(t *testing.T) {
	const workers, slo, load, timeScale = 4, 0.150, 120.0, 5.0
	set := core.NewPolicySet(core.Config{
		Models: profile.ImageSet(), SLO: slo, Workers: workers,
		Arrival: dist.NewPoisson(1), D: 50,
	}, nil)
	if err := set.GenerateLoads([]float64{load}); err != nil {
		t.Fatal(err)
	}
	tr := trace.Constant(load, 10)
	c := startCluster(t, ClusterConfig{
		Models:    profile.ImageSet(),
		Workers:   workers,
		SLO:       slo,
		TimeScale: timeScale,
		Select:    coverSelector(t, set),
		Monitor:   monitor.Oracle{Trace: tr},
		Seed:      1,
	})
	arr := trace.PoissonArrivals(tr, 5)
	m, err := c.Frontend.Replay(context.Background(), arr)
	if err != nil {
		t.Fatal(err)
	}
	if m.Served != len(arr) {
		t.Fatalf("served %d of %d", m.Served, len(arr))
	}
	// At this time scale the HTTP round trip inflates modeled latencies by
	// ~5x its wall cost, so allow a generous violation budget; accuracy
	// should still be in the policy's neighborhood.
	pol := set.Policies()[0]
	if acc := m.AccuracyPerSatisfiedQuery(); math.Abs(acc-pol.ExpectedAccuracy) > 0.08 {
		t.Errorf("prototype accuracy %.4f far from expectation %.4f", acc, pol.ExpectedAccuracy)
	}
	budget := 0.20
	if RaceEnabled {
		// The race detector multiplies the HTTP hop's wall cost several
		// fold, and at this time scale that lands directly in modeled
		// latency.
		budget = 0.50
	}
	if vr := m.ViolationRate(); vr > budget {
		t.Errorf("prototype violation rate %.4f implausibly high", vr)
	}
}

// TestPrototypeCentralModeBaseline replays a load-granular baseline. The
// baselines' implicit balancing (eager workers on one central queue) is
// join-shortest-queue over the per-worker queues here.
func TestPrototypeCentralModeBaseline(t *testing.T) {
	const workers, slo, load, timeScale = 4, 0.150, 100.0, 5.0
	ps := profile.ImageSet()
	tr := trace.Constant(load, 10)
	// A Jellyfish+-style fixed selection at this load.
	modelFor := func(load float64) int {
		for i, p := range ps.Profiles {
			if p.Name == "efficientnet_b0" {
				_ = p
				return i
			}
		}
		return 0
	}
	c := startCluster(t, ClusterConfig{
		Models:    ps,
		Workers:   workers,
		SLO:       slo,
		TimeScale: timeScale,
		Select:    baselines.LoadGranular(ps, slo, modelFor),
		Monitor:   monitor.Oracle{Trace: tr},
		Balancer:  lb.NewJoinShortestQueue(),
		Seed:      1,
	})
	m, err := c.Frontend.Replay(context.Background(), trace.PoissonArrivals(tr, 6))
	if err != nil {
		t.Fatal(err)
	}
	if m.Served == 0 || m.Unserved != 0 {
		t.Fatalf("metrics %+v", m)
	}
	b0, _ := ps.ByName("efficientnet_b0")
	if got := m.ModelCounts["efficientnet_b0"]; got != m.Served {
		t.Errorf("served %d on b0 of %d", got, m.Served)
	}
	if acc := m.AccuracyPerSatisfiedQuery(); m.Violations == 0 && math.Abs(acc-b0.Accuracy) > 1e-9 {
		t.Errorf("accuracy %v, want %v", acc, b0.Accuracy)
	}
}

func TestReplayErrorsOnNoWorkers(t *testing.T) {
	f := &Frontend{Profiles: profile.ImageSet(), SLO: 0.1, Select: func(_, _ float64, n int, _ float64) (string, int) { return "resnet50", n }}
	if err := f.Start(); err == nil {
		t.Error("no-worker frontend should not start")
	}
	if _, err := f.Replay(context.Background(), []float64{0}); err == nil {
		t.Error("no-worker run should fail")
	}
}

// TestReplaySurfacesUnknownModel pins that a mis-wired policy fails the run
// loudly: the frontend keeps the query alive on its fallback model (live
// traffic is never dropped on selector misbehavior), counts the fallback,
// and the replay driver turns that count into an error.
func TestReplaySurfacesUnknownModel(t *testing.T) {
	c := startCluster(t, ClusterConfig{
		Models:    profile.ImageSet(),
		Workers:   1,
		SLO:       0.1,
		TimeScale: 50,
		Select:    func(_, _ float64, n int, _ float64) (string, int) { return "not_a_model", n },
	})
	m, err := c.Frontend.Replay(context.Background(), []float64{0})
	if err == nil {
		t.Error("unknown model should surface as an error")
	}
	if m.Served != 1 {
		t.Errorf("served %d, want the query kept alive on the fallback model", m.Served)
	}
	if v := c.Frontend.Telemetry.Counter(telemetry.MetricSelectFallbacks).Value(); v != 1 {
		t.Errorf("%s = %v, want 1", telemetry.MetricSelectFallbacks, v)
	}
}

func TestFrontendLiveQueries(t *testing.T) {
	const workers, slo, load, timeScale = 2, 0.150, 60.0, 2.0
	set := core.NewPolicySet(core.Config{
		Models: profile.ImageSet(), SLO: slo, Workers: workers,
		Arrival: dist.NewPoisson(1), D: 50,
	}, nil)
	if err := set.GenerateLoads([]float64{load, 2 * load}); err != nil {
		t.Fatal(err)
	}
	urls := startWorkers(t, workers, sim.Deterministic{}, timeScale)
	f := &Frontend{
		Profiles:  profile.ImageSet(),
		SLO:       slo,
		TimeScale: timeScale,
		Workers:   urls,
		process:   process{net: pipes},
		Select:    coverSelector(t, set),
		Monitor:   monitor.NewMovingAverage(0.5),
	}
	if err := f.Start(); err != nil {
		t.Fatal(err)
	}
	defer f.Stop()

	// Fire 60 concurrent live queries over ~1s wall.
	const n = 60
	var wg sync.WaitGroup
	responses := make([]QueryResponse, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			time.Sleep(time.Duration(i) * 15 * time.Millisecond)
			resp, err := pipeClient.Post(f.URL()+"/query", "application/json", strings.NewReader(`{}`))
			if err != nil {
				errs[i] = err
				return
			}
			defer resp.Body.Close()
			errs[i] = json.NewDecoder(resp.Body).Decode(&responses[i])
		}(i)
	}
	wg.Wait()
	met := 0
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("query %d: %v", i, errs[i])
		}
		if responses[i].Model == "" || responses[i].Batch < 1 {
			t.Fatalf("query %d: malformed response %+v", i, responses[i])
		}
		if responses[i].DeadlineMet {
			met++
		}
	}
	if met < n*8/10 {
		t.Errorf("only %d/%d live queries met the deadline", met, n)
	}

	// Stats endpoint reflects the served queries.
	resp, err := pipeClient.Get(f.URL() + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Served != n {
		t.Errorf("stats served = %d, want %d", stats.Served, n)
	}
	if stats.Accuracy <= 0.6 {
		t.Errorf("stats accuracy %v implausible", stats.Accuracy)
	}
}

func TestFrontendRejectsGet(t *testing.T) {
	urls := startWorkers(t, 1, sim.Deterministic{}, 10)
	f := &Frontend{
		Profiles: profile.ImageSet(), SLO: 0.150, TimeScale: 10, Workers: urls,
		process: process{net: pipes},
		Select:  func(_, _ float64, n int, _ float64) (string, int) { return "shufflenet_v2_x0_5", n },
	}
	if err := f.Start(); err != nil {
		t.Fatal(err)
	}
	defer f.Stop()
	resp, err := pipeClient.Get(f.URL() + "/query")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /query = %d, want 405", resp.StatusCode)
	}
}

func TestFrontendRequiresWorkers(t *testing.T) {
	f := &Frontend{Profiles: profile.ImageSet(), SLO: 0.1}
	if err := f.Start(); err == nil {
		t.Error("frontend with no workers started")
	}
}

// TestClusterLifecycle is the frontend's smoke test over real TCP ports,
// its workers' and its own.
func TestClusterLifecycle(t *testing.T) {
	set := core.NewPolicySet(core.Config{
		Models: profile.ImageSet(), SLO: 0.150, Workers: 2,
		Arrival: dist.NewPoisson(1), D: 25,
	}, nil)
	if err := set.GenerateLoads([]float64{50, 100}); err != nil {
		t.Fatal(err)
	}
	c, err := StartCluster(ClusterConfig{
		Models:    profile.ImageSet(),
		Workers:   2,
		SLO:       0.150,
		TimeScale: 5,
		Select:    coverSelector(t, set),
		Monitor:   monitor.NewMovingAverage(0.5),
		Seed:      1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	resp, err := http.Post(c.URL()+"/query", "application/json", strings.NewReader(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var qr QueryResponse
	if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
		t.Fatal(err)
	}
	if qr.Model == "" || !qr.DeadlineMet {
		t.Errorf("cluster query response %+v", qr)
	}
}

func TestClusterValidation(t *testing.T) {
	if _, err := StartCluster(ClusterConfig{Workers: 0}); err == nil {
		t.Error("zero-worker cluster started")
	}
	if _, err := StartCluster(ClusterConfig{Workers: 1}); err == nil {
		t.Error("selector-less cluster started")
	}
}
