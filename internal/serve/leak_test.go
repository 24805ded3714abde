package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"ramsis/internal/admit"
	"ramsis/internal/llm"
	"ramsis/internal/profile"
	"ramsis/internal/sim"
	"ramsis/internal/telemetry"
	"ramsis/internal/tenant"
)

// requireGoroutines fails the test, dumping every goroutine's stack, unless
// the goroutine count returns to baseline within 5 s. No slack is allowed:
// after Stop nothing the deployment started may still be running.
func requireGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("%d goroutines 5 s after Stop, %d before start:\n%s",
				runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// burstPlane is the repository benchmark's plane_burst shape: tenants gold
// and silver, two shards of one worker, p2c shard routing, zero-length
// inference.
func burstPlane() ShardedConfig {
	return ShardedConfig{
		Models: profile.ImageSet(),
		Tenants: []tenant.Tenant{
			{Name: "gold", Class: "interactive", SLOMS: 1e12, Weight: 2, RateQPS: 2, BurstSec: 32},
			{Name: "silver", Class: "standard", SLOMS: 2e12, Weight: 1, RateQPS: 1, BurstSec: 32},
		},
		Shards:          2,
		WorkersPerShard: 1,
		TimeScale:       1e10, // every profiled latency sleeps 0 ns
		Seed:            1,
		D:               40,
		ShardBy:         "p2c",
		Telemetry:       telemetry.NewRegistry(),
		net:             pipes,
	}
}

// burstCluster is burstPlane's single-tenant counterpart: one frontend over
// two workers, the fastest model at the largest batch it takes.
func burstCluster() ClusterConfig {
	fastest := profile.ImageSet().Fastest()
	return ClusterConfig{
		Models: profile.ImageSet(), Workers: 2, SLO: 1e9, TimeScale: 1e10, Seed: 1,
		Select: func(_, _ float64, n int, _ float64) (string, int) {
			return fastest.Name, min(n, fastest.MaxBatch())
		},
		net: pipes,
	}
}

// TestShardedClusterStopLeavesNoGoroutines starts the sharded plane in the
// plane_burst shape, routes one 32-query burst, stops it, and requires the
// goroutine count back at its pre-start value.
func TestShardedClusterStopLeavesNoGoroutines(t *testing.T) {
	baseline := runtime.NumGoroutine()
	c, err := StartShardedCluster(burstPlane())
	if err != nil {
		t.Fatal(err)
	}
	const burst = 32
	pending := make([]<-chan QueryResponse, 0, burst)
	for i := 0; i < burst; i++ {
		name := "gold"
		if i%3 == 2 {
			name = "silver"
		}
		ch, eerr := c.Gateway.Route(name)
		if eerr != nil {
			c.Stop()
			t.Fatalf("query %d: %v", i, eerr)
		}
		pending = append(pending, ch)
	}
	for i, ch := range pending {
		if r := <-ch; r.Error != "" {
			t.Errorf("query %d: %s", i, r.Error)
		}
	}
	c.Stop()
	requireGoroutines(t, baseline)
}

// generationStacks returns the stack of every goroutine inside internal/core —
// after a plane's Stop, one is a policy generation nobody joined.
func generationStacks() string {
	buf := make([]byte, 1<<20)
	var out []string
	for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
		if strings.Contains(g, "ramsis/internal/core.") {
			out = append(out, g)
		}
	}
	return strings.Join(out, "\n\n")
}

// TestShardedClusterStopJoinsOnDemandGeneration stops the sharded plane
// while an on-demand generation is in flight: a 32-query burst reads a
// rate far past the tenant's one-rung ladder (its 1 QPS contract), so the
// tenant's coverage adapter starts a higher rung's generation in the
// background. That generation must still be running when Stop is called,
// or the test proves nothing; Stop must wait for it — no goroutine may
// still be inside internal/core once Stop returns — and leave nothing
// running. The plane's clock is held at one instant, so every decision
// reads every arrival so far in its rate window however the host schedules
// the burst, and D is 10, so the rung Stop waits on is a cheap one.
func TestShardedClusterStopJoinsOnDemandGeneration(t *testing.T) {
	baseline := runtime.NumGoroutine()
	reg := telemetry.NewRegistry()
	c, err := StartShardedCluster(ShardedConfig{
		Models:          profile.ImageSet(),
		Tenants:         []tenant.Tenant{{Name: "gold", Class: "interactive", SLOMS: 150, Weight: 1, RateQPS: 1, BurstSec: 64}},
		Shards:          1,
		WorkersPerShard: 1,
		TimeScale:       1000,
		Seed:            1,
		D:               10,
		Telemetry:       reg,
		net:             pipes,
		clock:           heldClock(1),
	})
	if err != nil {
		t.Fatal(err)
	}
	const burst = 32
	pending := make([]<-chan QueryResponse, 0, burst)
	for i := 0; i < burst; i++ {
		ch, eerr := c.Gateway.Route("gold")
		if eerr != nil {
			c.Stop()
			t.Fatalf("query %d: %v", i, eerr)
		}
		pending = append(pending, ch)
	}
	for i, ch := range pending {
		if r := <-ch; r.Error != "" {
			t.Errorf("query %d: %s", i, r.Error)
		}
	}
	resolves, swaps := reg.Counter(telemetry.MetricAdaptResolves), reg.Counter(telemetry.MetricAdaptSwaps)
	// The adapter counts the generation on the goroutine that runs it,
	// which on one thread may not have been scheduled yet: yield until it
	// has, without sleeping through the generation itself.
	for deadline := time.Now().Add(5 * time.Second); resolves.Value() == 0 && time.Now().Before(deadline); {
		runtime.Gosched()
	}
	if resolves.Value() != 1 {
		c.Stop()
		t.Fatalf("the burst started %v on-demand generations, want 1", resolves.Value())
	}
	if swaps.Value() != 0 {
		c.Stop()
		t.Fatal("the on-demand generation finished before Stop; nothing was in flight to join")
	}
	start := time.Now()
	c.Stop()
	if g := generationStacks(); g != "" {
		t.Fatalf("Stop returned while a policy generation was running:\n%s", g)
	}
	if swaps.Value() != 1 {
		t.Errorf("Stop returned with %v rungs generated, want the one in flight", swaps.Value())
	}
	t.Logf("Stop took %v", time.Since(start))
	requireGoroutines(t, baseline)
}

// TestClusterStopLeavesNoGoroutines is the single-tenant shape: one
// 32-query burst through StartCluster's frontend, then Stop.
func TestClusterStopLeavesNoGoroutines(t *testing.T) {
	baseline := runtime.NumGoroutine()
	c, err := StartCluster(burstCluster())
	if err != nil {
		t.Fatal(err)
	}
	const burst = 32
	pending := make([]<-chan QueryResponse, 0, burst)
	for i := 0; i < burst; i++ {
		ch, eerr := c.Frontend.Enqueue("")
		if eerr != nil {
			c.Stop()
			t.Fatalf("query %d: %v", i, eerr)
		}
		pending = append(pending, ch)
	}
	for i, ch := range pending {
		if r := <-ch; r.Error != "" {
			t.Errorf("query %d: %s", i, r.Error)
		}
	}
	c.Stop()
	requireGoroutines(t, baseline)
}

// TestWorkerStopClosesItsConns stops one of a frontend's two workers
// while the frontend holds connections to it (its dispatch loop's and its
// prober's). The stopped worker's goroutines — its accept loop and one
// serve loop per connection — must all exit. The
// frontend's next dispatches to it must fail as transport errors: each
// reports a health failure and fails over within the retry budget, until
// the second marks the worker unhealthy. Every query is answered exactly
// once, and none is left outstanding.
func TestWorkerStopClosesItsConns(t *testing.T) {
	const failThreshold = 2 // lb's: consecutive failures that mask a worker
	baseline := runtime.NumGoroutine()
	workers := make([]*Worker, 2)
	urls := make([]string, 2)
	for i := range workers {
		workers[i] = NewWorker(profile.ImageSet(), sim.Deterministic{}, 1e10, int64(i+1))
		workers[i].net = pipes
		if err := workers[i].Start(); err != nil {
			t.Fatal(err)
		}
		urls[i] = workers[i].URL()
	}
	f := &Frontend{
		Profiles: profile.ImageSet(), SLO: 1e9, TimeScale: 1e10,
		Workers:     urls,
		Select:      fixedSelector(profile.ImageSet().Fastest().Name),
		RetryBudget: admit.NewRetryBudget(failThreshold, 0),
		process:     process{net: pipes},
		// The probe loops never tick: the test probes by hand, so the
		// first failures the worker sees are the dispatches'.
		healthInterval: time.Hour,
	}
	if err := f.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		_ = f.Stop()
		for _, w := range workers {
			_ = w.Stop()
		}
	}()

	query := func() QueryResponse {
		t.Helper()
		ch, eerr := f.Enqueue("")
		if eerr != nil {
			t.Fatal(eerr)
		}
		select {
		case r := <-ch:
			if len(ch) != 0 {
				t.Errorf("query %d answered twice", r.ID)
			}
			return r
		case <-time.After(10 * time.Second):
			t.Fatal("query never answered")
		}
		return QueryResponse{}
	}
	for w := range workers {
		if !f.probe(w) {
			t.Fatalf("worker %d failed its first probe", w)
		}
	}
	for i := 0; i < 8; i++ {
		if r := query(); r.Error != "" {
			t.Fatalf("query %d before the stop: %s", i, r.Error)
		}
	}
	dead := workers[1]
	open := countConns(dead)
	if open < 2 {
		t.Fatalf("worker 1 holds %d connections, want its dispatch loop's and its prober's", open)
	}
	running := runtime.NumGoroutine()
	if err := dead.Stop(); err != nil {
		t.Fatal(err)
	}
	// Its accept loop and one serve loop per connection.
	requireGoroutines(t, running-1-open)

	before := f.Stats().WorkerDispatches[1]
	for i := 0; f.health.IsHealthy(1); i++ {
		if i == 16 {
			t.Fatal("worker 1 still healthy after 16 queries")
		}
		if r := query(); r.Error != "" {
			t.Errorf("query %d after the stop: %s", i, r.Error)
		}
	}
	if n := f.Stats().WorkerDispatches[1] - before; n != failThreshold {
		t.Errorf("%d dispatches to the stopped worker, want %d: one transport failure each", n, failThreshold)
	}
	retries := f.Telemetry.Counter(telemetry.MetricAdmitRetries).Value()
	denied := f.Telemetry.Counter(telemetry.MetricAdmitRetriesDenied).Value()
	if retries != failThreshold || denied != 0 {
		t.Errorf("failover retries %v, denied %v; want %d, 0", retries, denied, failThreshold)
	}
	if r := query(); r.Error != "" {
		t.Errorf("query after the worker was masked: %s", r.Error)
	}
	if st := f.Stats(); st.FailedDispatches != 0 || f.Outstanding() != 0 {
		t.Errorf("%d failed dispatches, %d outstanding; want 0, 0", st.FailedDispatches, f.Outstanding())
	}
	_ = f.Stop()
	_ = workers[0].Stop()
	requireGoroutines(t, baseline)
}

// stopWithin stops w and fails the test unless Stop returns within d.
func stopWithin(t *testing.T, w *Worker, d time.Duration) {
	t.Helper()
	stopped := make(chan error, 1)
	go func() { stopped <- w.Stop() }()
	select {
	case err := <-stopped:
		if err != nil {
			t.Error(err)
		}
	case <-time.After(d):
		t.Fatalf("Worker.Stop did not return within %v", d)
	}
}

// TestWorkerStopEndsColdRequests starts a 30 s CPU profile on a worker, a
// cold request its mux answers: Stop must end the profile and return
// within 2 s, and leave no goroutine running.
func TestWorkerStopEndsColdRequests(t *testing.T) {
	baseline := runtime.NumGoroutine()
	w := NewWorker(profile.ImageSet(), sim.Deterministic{}, 1e10, 1)
	w.net = pipes
	if err := w.Start(); err != nil {
		t.Fatal(err)
	}
	conn, err := pipes.dial(strings.TrimPrefix(w.URL(), "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("GET /debug/pprof/profile?seconds=30 HTTP/1.1\r\nHost: w\r\n\r\n")); err != nil {
		t.Fatal(err)
	}
	profiling := func() bool {
		buf := make([]byte, 1<<20)
		return strings.Contains(string(buf[:runtime.Stack(buf, true)]), "net/http/pprof.Profile(")
	}
	if !waitUntil(t, 5*time.Second, profiling) {
		t.Fatal("the profile handler never started")
	}
	stopWithin(t, w, 2*time.Second)
	requireGoroutines(t, baseline)
}

// TestWorkerStopClosesSilentConn opens a connection to a worker that never
// sends a byte: Stop must close it and join its loop.
func TestWorkerStopClosesSilentConn(t *testing.T) {
	baseline := runtime.NumGoroutine()
	w := NewWorker(profile.ImageSet(), sim.Deterministic{}, 1e10, 1)
	w.net = pipes
	if err := w.Start(); err != nil {
		t.Fatal(err)
	}
	conn, err := pipes.dial(strings.TrimPrefix(w.URL(), "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if !waitUntil(t, 5*time.Second, func() bool { return countConns(w) == 1 }) {
		t.Fatal("the worker never accepted the connection")
	}
	stopWithin(t, w, 2*time.Second)
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if n, err := conn.Read(make([]byte, 1)); err != io.EOF {
		t.Errorf("read %d bytes, %v after Stop; want the connection closed", n, err)
	}
	requireGoroutines(t, baseline)
}

// TestStartClusterOnBoundAddrLeavesNoGoroutines starts a cluster whose
// frontend address is taken: StartCluster must return the listen error and
// leave nothing running, the workers it booted and the frontend's health
// probes included.
func TestStartClusterOnBoundAddrLeavesNoGoroutines(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	baseline := runtime.NumGoroutine()
	cfg := burstCluster()
	cfg.Addr, cfg.net = ln.Addr().String(), tcp{}
	if c, err := StartCluster(cfg); err == nil {
		c.Stop()
		t.Fatalf("StartCluster on bound %s succeeded", cfg.Addr)
	}
	requireGoroutines(t, baseline)
}

// TestStopIsRepeatable stops every deployment shape twice at once and then
// once more: no Stop may panic, and nothing may be left running.
func TestStopIsRepeatable(t *testing.T) {
	models := llm.BuiltinSet()
	for _, tc := range []struct {
		name  string
		start func() (stop func(), err error)
	}{
		{"Cluster", func() (func(), error) {
			c, err := StartCluster(burstCluster())
			if err != nil {
				return nil, err
			}
			return c.Stop, nil
		}},
		{"ShardedCluster", func() (func(), error) {
			c, err := StartShardedCluster(burstPlane())
			if err != nil {
				return nil, err
			}
			return c.Stop, nil
		}},
		{"Worker", func() (func(), error) {
			w := NewWorker(profile.ImageSet(), sim.Deterministic{}, 1e10, 1)
			w.net = pipes
			return func() { _ = w.Stop() }, w.Start()
		}},
		{"LLMWorker", func() (func(), error) {
			w := NewLLMWorker(models, 8.0, 1e10, sim.FixedSelector(models.Fastest()))
			w.net = pipes
			return func() { _ = w.Stop() }, w.Start()
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			baseline := runtime.NumGoroutine()
			stop, err := tc.start()
			if err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			for i := 0; i < 2; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					stop()
				}()
			}
			wg.Wait()
			stop()
			requireGoroutines(t, baseline)
		})
	}
}

// TestLLMWorkerStopMidStreamLeavesNoGoroutines stops an LLM worker while a
// /generate stream is in flight: the stream must end, and every goroutine
// the worker, its handler and the client's connection started must exit.
func TestLLMWorkerStopMidStreamLeavesNoGoroutines(t *testing.T) {
	baseline := runtime.NumGoroutine()
	models := llm.BuiltinSet()
	// At TimeScale 1 a decode step is tens of wall milliseconds, so 10,000
	// tokens keep the stream open far longer than the test waits.
	w := NewLLMWorker(models, 8.0, 1, sim.FixedSelector(models.Fastest()))
	w.net = pipes
	if err := w.Start(); err != nil {
		t.Fatal(err)
	}
	client := &http.Client{Transport: pipes.transport()}
	body, _ := json.Marshal(GenRequest{Prefill: 100, Decode: 10000})
	resp, err := client.Post(w.URL()+"/generate", "application/json", bytes.NewReader(body))
	if err != nil {
		w.Stop()
		t.Fatal(err)
	}
	var first [1]byte
	if _, err := io.ReadFull(resp.Body, first[:]); err != nil {
		w.Stop()
		t.Fatalf("no first token: %v", err)
	}
	if err := w.Stop(); err != nil {
		t.Fatal(err)
	}
	rest, _ := io.ReadAll(resp.Body) // ends once Stop closes the connection
	resp.Body.Close()
	tokens := 1 + len(rest)
	if i := bytes.IndexByte(rest, '\n'); i >= 0 {
		tokens = 1 + i // the summary trailer follows the token bytes
	}
	if tokens >= 10000 {
		t.Errorf("stream delivered all %d tokens; Stop did not interrupt it", tokens)
	}
	client.CloseIdleConnections()
	requireGoroutines(t, baseline)
}
