package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"math"
	"net"
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
// while it answers stay a small multiple of maxRequestBody rather than
// growing with the body.
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
}

// startWorker boots one image worker on the pipe network at TimeScale 50;
// the test's cleanup stops it.
func startWorker(t *testing.T) *Worker {
	t.Helper()
	w := NewWorker(profile.ImageSet(), sim.Deterministic{}, 50, 1)
	w.net = pipes
	if err := w.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = w.Stop() })
	return w
}

// dispatchRequest is a request as the dispatcher's exchange writes it: a
// Content-Length body and, when trace is not empty, the X-Trace-Id context.
func dispatchRequest(path, body, trace string) string {
	req := "POST " + path + " HTTP/1.1\r\nHost: w\r\nContent-Length: " + strconv.Itoa(len(body))
	if trace != "" {
		req += "\r\nX-Trace-Id: " + trace
	}
	return req + "\r\n\r\n" + body
}

// servedConn dials w and sends one /infer; it returns the connection and
// its reader, past the first answer.
func servedConn(t *testing.T, w *Worker) (net.Conn, *bufio.Reader) {
	t.Helper()
	u, err := url.Parse(w.URL())
	if err != nil {
		t.Fatal(err)
	}
	conn, err := pipes.dial(u.Host)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	br := bufio.NewReader(conn)
	if status, _ := readAnswer(t, conn, br, dispatchRequest("/infer", `{"model":"shufflenet_v2_x0_5","batch":1}`, "")); status != http.StatusOK {
		t.Fatalf("first /infer: status %d, want 200", status)
	}
	return conn, br
}

// readAnswer writes req on conn and reads one answer, failing the test
// unless it is framed by Content-Length alone; it returns the status and
// the body.
func readAnswer(t *testing.T, conn net.Conn, br *bufio.Reader, req string) (int, []byte) {
	t.Helper()
	if _, err := conn.Write([]byte(req)); err != nil {
		t.Fatalf("%q: %v", req, err)
	}
	resp, err := http.ReadResponse(br, nil)
	if err != nil {
		t.Fatalf("%q: %v", req, err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("%q: reading body: %v", req, err)
	}
	if resp.Header.Get("Content-Length") == "" || len(resp.TransferEncoding) > 0 {
		t.Errorf("%q: framed by Content-Length %q, Transfer-Encoding %q; want Content-Length only",
			req, resp.Header.Get("Content-Length"), resp.TransferEncoding)
	}
	return resp.StatusCode, body
}

// requireClosed fails the test unless the worker, within 5 s of req being
// written, answers it with status want framed by Content-Length (want 0:
// does not answer it) and then closes conn. The write runs beside the
// read, since the worker may stop reading before the request ends.
func requireClosed(t *testing.T, conn net.Conn, br *bufio.Reader, req []byte, want int) {
	t.Helper()
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	go func() { _, _ = conn.Write(req) }()
	if want != 0 {
		resp, err := http.ReadResponse(br, nil)
		if err != nil {
			t.Errorf("%.40q: %v; want a %d answer", req, err, want)
			return
		}
		_, err = io.Copy(io.Discard, resp.Body)
		if err != nil || resp.StatusCode != want || resp.Header.Get("Content-Length") == "" {
			t.Errorf("%.40q: answered %d, Content-Length %q, %v; want %d framed by Content-Length",
				req, resp.StatusCode, resp.Header.Get("Content-Length"), err, want)
		}
	}
	if b, err := io.ReadAll(br); err != nil || len(b) > 0 {
		t.Errorf("%.40q: read %q, %v after the answer; want the connection closed", req, b, err)
	}
}

// countConns returns the number of connections w holds open.
func countConns(w *Worker) int {
	w.connMu.Lock()
	defer w.connMu.Unlock()
	return len(w.conns)
}

// TestWorkerConnAnswersLikeNetHTTP serves a 200, a 404 (unknown model),
// a 400 (batch out of range), a 200 and a /healthz on one connection: each
// answer has the status and the Content-Length framing net/http gives it
// (TestWorkerFramesByContentLength), and the connection stays open through
// the errors.
func TestWorkerConnAnswersLikeNetHTTP(t *testing.T) {
	w := startWorker(t)
	conn, br := servedConn(t, w)
	if n := countConns(w); n != 1 {
		t.Fatalf("%d connections open after one /infer, want 1", n)
	}
	for _, c := range []struct {
		path, body string
		want       int
	}{
		{"/infer", `{"model":"nope","batch":1}`, http.StatusNotFound},
		{"/infer", `{"model":"shufflenet_v2_x0_5","batch":0}`, http.StatusBadRequest},
		{"/infer", `{"model":"shufflenet_v2_x0_5","batch":999}`, http.StatusBadRequest},
		{"/infer", `not json`, http.StatusBadRequest},
		{"/infer", `{"batch":2,"model":"shufflenet_v2_x0_5"}`, http.StatusOK},
		{"/infer", `{"model":"shufflenet_v2_x0_5","batch":2}`, http.StatusOK},
		{"/healthz", ``, http.StatusOK},
	} {
		status, body := readAnswer(t, conn, br, dispatchRequest(c.path, c.body, ""))
		if status != c.want {
			t.Errorf("%s %s: status %d, want %d", c.path, c.body, status, c.want)
		}
		if _, ok := parseInferLatency(body); c.want == http.StatusOK && c.path == "/infer" && !ok {
			t.Errorf("%s: 200 body %q has no parseable latency", c.body, body)
		}
	}
}

// TestWorkerConnClosesOnWhatItDoesNotServe sends, each after one valid
// exchange on a fresh connection, a request the loop does not keep the
// connection open for. A request net/http answers (a GET /infer, a POST
// /metrics, /infer over HTTP/1.0) gets net/http's answer and then a closed
// connection; framing the loop does not read (a chunked body, an over-long
// header line, a header line without a colon, two differing
// Content-Lengths) closes it unanswered. A declared body over
// maxRequestBody is answered 400 before any buffer is sized for it, as
// TestWorkerCapsInferBody requires.
func TestWorkerConnClosesOnWhatItDoesNotServe(t *testing.T) {
	w := startWorker(t)
	for _, c := range []struct {
		req  string
		want int
	}{
		{"GET /infer HTTP/1.1\r\nHost: w\r\n\r\n", http.StatusMethodNotAllowed},
		{dispatchRequest("/metrics", "", ""), http.StatusOK},
		{"POST /infer HTTP/1.1\r\nHost: w\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nhello\r\n0\r\n\r\n", 0},
		{"POST /infer HTTP/1.0\r\nContent-Length: 2\r\n\r\n{}", http.StatusHTTPVersionNotSupported},
		{"POST /infer HTTP/1.1\r\nX-Trace-Id: " + strings.Repeat("a", 8<<10) + "\r\n\r\n", 0},
		{"POST /infer HTTP/1.1\r\nContent-Length 2\r\n\r\n{}", 0},
		{"POST /infer HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 41\r\n\r\n{}", 0},
	} {
		conn, br := servedConn(t, w)
		requireClosed(t, conn, br, []byte(c.req), c.want)
	}

	body := `{"model":"shufflenet_v2_x0_5","batch":1` + strings.Repeat(" ", 1<<20) + `}`
	req := []byte(dispatchRequest("/infer", body, ""))
	conn, br := servedConn(t, w)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	requireClosed(t, conn, br, req, http.StatusBadRequest)
	runtime.ReadMemStats(&after)
	if grown := after.TotalAlloc - before.TotalAlloc; grown > 64*maxRequestBody {
		t.Errorf("refusing a 1 MiB body allocated %d bytes, want at most %d", grown, 64*maxRequestBody)
	}
}

// TestWorkerConnReadsLongestTraceContext sends the longest X-Trace-Id a
// dispatcher writes — a batch of the largest profiled size, each trace ID
// as long as a client may set one (maxTraceID), and the longest shard name
// as the parent — on a worker's connection: it must fit the loop's header
// bound and record a fragment per trace ID.
func TestWorkerConnReadsLongestTraceContext(t *testing.T) {
	w := startWorker(t)
	conn, br := servedConn(t, w)
	ids := make([]string, profile.MaxSupportedBatch)
	for i := range ids {
		ids[i] = strings.Repeat(telemetry.NewTraceID(), maxTraceID/16)
	}
	ctx := strings.Join(ids, ",") + ";shard-" + strconv.Itoa(math.MaxInt)
	if n := len("X-Trace-Id: " + ctx + "\r\n"); n > br.Size() {
		t.Fatalf("the longest X-Trace-Id line is %d bytes, past a %d-byte reader", n, br.Size())
	}
	body := appendInferRequest(nil, "shufflenet_v2_x0_5", profile.MaxSupportedBatch)
	if status, _ := readAnswer(t, conn, br, dispatchRequest("/infer", string(body), ctx)); status != http.StatusOK {
		t.Fatalf("longest trace context: status %d, want 200", status)
	}
	got := map[string]int{}
	for _, qt := range w.Traces.Snapshot() {
		got[qt.TraceID]++
	}
	for _, id := range ids {
		if got[id] != 1 {
			t.Errorf("trace %s: %d worker fragments, want 1", id, got[id])
		}
	}
}

// TestWorkerServesGenericClients sends what clients other than the
// dispatcher send, each on a fresh connection. Go's http.Client, with its
// own header set, gets the bytes the dispatcher's exchange gets for the
// same body. The loop ignores Expect: 100-continue (the body is already
// sent) and Connection: close, and answers a run of hot requests on one
// connection; a GET of /healthz, /metrics or /debug/traces is answered by
// the worker's mux, and then the connection closes.
func TestWorkerServesGenericClients(t *testing.T) {
	w := startWorker(t)
	u, err := url.Parse(w.URL() + "/infer")
	if err != nil {
		t.Fatal(err)
	}
	body := `{"model":"shufflenet_v2_x0_5","batch":2}`
	s := &postScratch{net: pipes}
	defer s.closeConns()
	if status, err := s.roundTrip(0, u, []byte(body), nil); err != nil || status != http.StatusOK {
		t.Fatalf("exchange: status %d, %v", status, err)
	}
	resp, err := pipeClient.Post(u.String(), "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK || string(got) != string(s.resp) {
		t.Errorf("http.Client: %d %q, %v; want 200 %q as exchange reads it", resp.StatusCode, got, err, s.resp)
	}

	get := func(path string) string { return "GET " + path + " HTTP/1.1\r\nHost: w\r\n\r\n" }
	for _, c := range []struct {
		name, req string
		want      []int
		closes    bool
	}{
		{"expect 100-continue", "POST /infer HTTP/1.1\r\nHost: w\r\nExpect: 100-continue\r\nContent-Length: " +
			strconv.Itoa(len(body)) + "\r\n\r\n" + body, []int{http.StatusOK}, false},
		{"connection close", "POST /infer HTTP/1.1\r\nHost: w\r\nConnection: close\r\nContent-Length: " +
			strconv.Itoa(len(body)) + "\r\n\r\n" + body, []int{http.StatusOK}, false},
		{"infer healthz infer", dispatchRequest("/infer", body, "") + dispatchRequest("/healthz", "", "") +
			dispatchRequest("/infer", body, ""), []int{http.StatusOK, http.StatusOK, http.StatusOK}, false},
		{"GET /healthz", get("/healthz"), []int{http.StatusOK}, true},
		{"GET /metrics", get("/metrics"), []int{http.StatusOK}, true},
		{"GET /debug/traces", get("/debug/traces"), []int{http.StatusOK}, true},
	} {
		conn, err := pipes.dial(u.Host)
		if err != nil {
			t.Fatal(err)
		}
		_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
		go func() { _, _ = conn.Write([]byte(c.req)) }()
		br := bufio.NewReader(conn)
		for i, want := range c.want {
			resp, err := http.ReadResponse(br, nil)
			if err != nil {
				t.Errorf("%s: answer %d: %v", c.name, i, err)
				break
			}
			got, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil || resp.StatusCode != want || resp.Header.Get("Content-Length") == "" {
				t.Errorf("%s: answer %d: %d %q, Content-Length %q, %v; want %d framed by Content-Length",
					c.name, i, resp.StatusCode, got, resp.Header.Get("Content-Length"), err, want)
			}
			if resp.Close != c.closes {
				t.Errorf("%s: answer %d: Connection: close is %v, want %v", c.name, i, resp.Close, c.closes)
			}
		}
		if c.closes {
			if b, err := io.ReadAll(br); err != nil || len(b) > 0 {
				t.Errorf("%s: read %q, %v after the answer; want the connection closed", c.name, b, err)
			}
		}
		conn.Close()
	}
}

// TestFrontendReplacesUnfitClientTraceID posts queries whose X-Trace-Id a
// dispatch could not carry — longer than maxTraceID, or holding the trace
// context's separators — and one of exactly maxTraceID bytes. Each is
// served on its first dispatch (no transport failure, no failover); the
// unfit IDs are replaced by fresh ones, and the fitting one is kept.
func TestFrontendReplacesUnfitClientTraceID(t *testing.T) {
	c := startCluster(t, burstCluster())
	fit := strings.Repeat("f", maxTraceID)
	unfit := []string{strings.Repeat("a", 5000), strings.Repeat("b", maxTraceID+1), "x,y", "x;y"}
	sent := append([]string{fit}, unfit...)
	for _, id := range append(sent, sent...) {
		req, err := http.NewRequest(http.MethodPost, c.Frontend.URL()+"/query", strings.NewReader(`{}`))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("X-Trace-Id", id)
		resp, err := pipeClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var qr QueryResponse
		err = json.NewDecoder(resp.Body).Decode(&qr)
		resp.Body.Close()
		if err != nil || qr.Error != "" {
			t.Fatalf("trace ID %.20q: %v %q", id, err, qr.Error)
		}
	}
	st := c.Frontend.Stats()
	if n := st.WorkerDispatches[0] + st.WorkerDispatches[1]; n != 2*len(sent) || st.FailedDispatches != 0 {
		t.Errorf("%d dispatches and %d failed for %d queries, want one each and none failed", n, st.FailedDispatches, 2*len(sent))
	}
	got := map[string]int{}
	for _, qt := range c.Frontend.Traces.Snapshot() {
		got[qt.TraceID]++
	}
	if got[fit] != 2 {
		t.Errorf("the %d-byte client trace ID has %d fragments, want 2", maxTraceID, got[fit])
	}
	for _, id := range unfit {
		if got[id] != 0 {
			t.Errorf("unfit client trace ID %.20q was kept", id)
		}
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
		Balancing: core.ShortestQueueFirst,
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
