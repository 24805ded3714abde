package serve

import (
	"context"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"ramsis/internal/admit"
	"ramsis/internal/profile"
	"ramsis/internal/sched"
	"ramsis/internal/sim"
)

// waitUntil polls cond until it holds or the deadline passes.
func waitUntil(t *testing.T, d time.Duration, cond func() bool) bool {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return true
		}
		time.Sleep(2 * time.Millisecond)
	}
	return cond()
}

// fireQueries sends n paced live queries and waits for all responses.
func fireQueries(t *testing.T, url string, n int, pace time.Duration) {
	t.Helper()
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := pipeClient.Post(url+"/query", "application/json", strings.NewReader(`{}`))
			if err == nil {
				resp.Body.Close()
			}
		}()
		time.Sleep(pace)
	}
	wg.Wait()
}

func fixedSelector(model string) sched.Selector {
	return func(_, _ float64, n int, _ float64) (string, int) { return model, n }
}

// TestFrontendRoutesAroundDeadWorker kills 1 of 3 workers mid-run and
// checks the tentpole failover behaviour: the health tracker detects the
// death, the balancer routes around it (zero dispatches to the dead worker
// after detection), failover rescues the batches caught in the detection
// window, and the overall violation rate stays within 2x a healthy
// cluster's on the same workload.
func TestFrontendRoutesAroundDeadWorker(t *testing.T) {
	const timeScale = 10.0
	const slo = 0.150
	const pace = 8 * time.Millisecond
	const total = 120 // 40 before the kill, 40 around detection, 40 after

	run := func(kill bool) (StatsResponse, *Frontend, func()) {
		urls := make([]string, 3)
		workers := make([]*Worker, 3)
		for i := range urls {
			workers[i] = NewWorker(profile.ImageSet(), sim.Deterministic{}, timeScale, int64(i+1))
			workers[i].net = pipes
			if err := workers[i].Start(); err != nil {
				t.Fatal(err)
			}
			urls[i] = workers[i].URL()
		}
		f := &Frontend{
			Profiles:       profile.ImageSet(),
			SLO:            slo,
			TimeScale:      timeScale,
			Workers:        urls,
			process:        process{net: pipes},
			Select:         fixedSelector("shufflenet_v2_x0_5"),
			healthInterval: 10 * time.Millisecond,
		}
		if err := f.Start(); err != nil {
			t.Fatal(err)
		}
		stop := func() {
			_ = f.Stop()
			for _, w := range workers {
				_ = w.Stop()
			}
		}

		fireQueries(t, f.URL(), total/3, pace)
		if kill {
			_ = workers[1].Stop()
		}
		fireQueries(t, f.URL(), total/3, pace)

		if kill {
			// The tracker must notice the death (failed dispatches and
			// probes both feed it).
			if !waitUntil(t, 2*time.Second, func() bool { return !f.health.IsHealthy(1) }) {
				t.Fatal("dead worker never marked unhealthy")
			}
			// Let any batch already queued to the dead worker drain through
			// failover before snapshotting its dispatch counter. The drain
			// time is load-dependent (several fold slower under the race
			// detector), so wait for the counter to go quiet instead of
			// sleeping a fixed interval.
			before := f.Stats().WorkerDispatches[1]
			quietSince := time.Now()
			for end := time.Now().Add(5 * time.Second); time.Now().Before(end); {
				if now := f.Stats().WorkerDispatches[1]; now != before {
					before = now
					quietSince = time.Now()
				} else if time.Since(quietSince) >= 300*time.Millisecond {
					break
				}
				time.Sleep(10 * time.Millisecond)
			}
			fireQueries(t, f.URL(), total/3, pace)
			if after := f.Stats().WorkerDispatches[1]; after != before {
				t.Errorf("dead worker got %d dispatches after detection", after-before)
			}
		} else {
			fireQueries(t, f.URL(), total/3, pace)
		}
		return f.Stats(), f, stop
	}

	healthy, _, stopHealthy := run(false)
	defer stopHealthy()
	killed, f, stopKilled := run(true)
	defer stopKilled()

	if killed.Served != total {
		t.Fatalf("killed run served %d of %d", killed.Served, total)
	}
	if h := killed.WorkerHealthy; h[0] != true || h[1] != false || h[2] != true {
		t.Errorf("health mask %v, want [true false true]", h)
	}
	// Failover should rescue nearly every batch caught in the detection
	// window: a connection-refused dispatch fails in microseconds and the
	// retry lands on a live worker well inside the SLO. Allow a small grace
	// on top of the 2x bound for batches mid-flight at the kill instant.
	grace := 0.05
	if killed.ViolationRate > 2*healthy.ViolationRate+grace {
		t.Errorf("killed-run violation rate %.4f exceeds 2x healthy rate %.4f (+%.2f grace)",
			killed.ViolationRate, healthy.ViolationRate, grace)
	}
	if killed.FailedDispatches > total/10 {
		t.Errorf("%d of %d queries lost to failed dispatches despite failover",
			killed.FailedDispatches, total)
	}
	_ = f
}

// TestFrontendClientDisconnect covers a /query client that gives up
// mid-inference: it must not wedge the worker loop, leak the dispatch
// goroutine or the connection's loop (which waits out the answer, then
// fails to write it), or lose the query from the metrics.
func TestFrontendClientDisconnect(t *testing.T) {
	urls := startWorkers(t, 1, sim.Deterministic{}, 1)
	f := &Frontend{
		Profiles:  profile.ImageSet(),
		SLO:       0.5,
		TimeScale: 1,
		Workers:   urls,
		process:   process{net: pipes},
		// resnet50 batch-1 inference holds the request long enough to
		// cancel mid-flight at TimeScale 1.
		Select: fixedSelector("resnet50"),
	}
	if err := f.Start(); err != nil {
		t.Fatal(err)
	}
	defer f.Stop()
	baseline := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(15 * time.Millisecond)
		cancel()
	}()
	req, _ := http.NewRequestWithContext(ctx, http.MethodPost, f.URL()+"/query", strings.NewReader(`{}`))
	if resp, err := pipeClient.Do(req); err == nil {
		resp.Body.Close()
		t.Fatal("expected the canceled query to fail client-side")
	}

	// The batch still completes and records metrics.
	if !waitUntil(t, 5*time.Second, func() bool { return f.Stats().Served == 1 }) {
		t.Fatalf("abandoned query never recorded: %+v", f.Stats())
	}
	// The worker loop must still serve subsequent queries.
	resp, err := pipeClient.Post(f.URL()+"/query", "application/json", strings.NewReader(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := f.Stats().Served; got != 2 {
		t.Errorf("served %d after follow-up query, want 2", got)
	}

	// No goroutine leak: the dispatch path writes to a buffered channel, so
	// once inferences drain the count returns to the pre-query level (plus
	// idle HTTP keep-alive slack).
	if !waitUntil(t, 5*time.Second, func() bool { return runtime.NumGoroutine() <= baseline+3 }) {
		t.Errorf("goroutines %d, baseline %d: leaked", runtime.NumGoroutine(), baseline)
	}
}

// TestReplaySurvivesWorkerDeath replays a trace through a two-worker
// cluster and stops one worker mid-run: every arrival must still be
// accounted for exactly once (served — rescued by failover or recorded as a
// failed dispatch — or shed at admission), the replay's fold of the
// responses must agree with the frontend's own /stats, and nothing may be
// left queued or in dispatch afterwards.
func TestReplaySurvivesWorkerDeath(t *testing.T) {
	const timeScale, n = 10.0, 300
	c := startCluster(t, ClusterConfig{
		Models:    profile.ImageSet(),
		Workers:   2,
		SLO:       0.150,
		TimeScale: timeScale,
		Select:    fixedSelector("shufflenet_v2_x0_5"),
		Admit:     admit.Cap{Limit: 8},
		Seed:      1,
	})
	arrivals := make([]float64, n)
	for i := range arrivals {
		arrivals[i] = float64(i) * 0.01 // 100 QPS modeled: 0.3 s of wall time
	}
	// Stop worker 1 once a quarter of the trace has been answered.
	replayed, killed := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(killed)
		for c.Frontend.Stats().Served < n/4 {
			select {
			case <-replayed:
				return
			case <-time.After(time.Millisecond):
			}
		}
		_ = c.pool.workers[1].Stop()
	}()
	m, err := c.Frontend.Replay(context.Background(), arrivals)
	close(replayed)
	<-killed
	if err != nil {
		t.Fatal(err)
	}
	if m.Served+m.Shed != n {
		t.Errorf("served %d + shed %d != %d offered", m.Served, m.Shed, n)
	}
	if m.Served == 0 {
		t.Error("nothing served")
	}
	st := c.Frontend.Stats()
	if st.Served != m.Served || st.Shed != m.Shed || st.Violations != m.Violations {
		t.Errorf("replay metrics served/shed/violations %d/%d/%d, /stats %d/%d/%d",
			m.Served, m.Shed, m.Violations, st.Served, st.Shed, st.Violations)
	}
	if st.FailedDispatches != m.FailedDispatches {
		t.Errorf("failed dispatches: replay %d, /stats %d", m.FailedDispatches, st.FailedDispatches)
	}
	if out := c.Frontend.Outstanding(); out != 0 {
		t.Errorf("%d queries still outstanding after the replay", out)
	}
	if !waitUntil(t, 2*time.Second, func() bool { return !c.Frontend.health.IsHealthy(1) }) {
		t.Error("stopped worker never marked unhealthy")
	}
	t.Logf("served %d, shed %d, failed dispatches %d, violations %d", m.Served, m.Shed, m.FailedDispatches, m.Violations)
}
