package serve

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"ramsis/internal/admit"
	"ramsis/internal/core"
	"ramsis/internal/dist"
	"ramsis/internal/monitor"
	"ramsis/internal/profile"
	"ramsis/internal/sim"
	"ramsis/internal/trace"
)

// TestFrontendShedsUnderHammer hammers /query far past capacity (run under
// -race via `make race`): a cap admitter must keep the backlog bounded,
// answer the excess 429 with a Retry-After hint, and never drop an
// in-flight response — every request gets exactly one well-formed answer.
func TestFrontendShedsUnderHammer(t *testing.T) {
	const (
		workers   = 2
		slo       = 0.150
		timeScale = 20.0
		capLimit  = 16
		loops     = 64 // concurrent clients — must exceed the cap to shed
		perLoop   = 4  // sequential requests per client
	)
	models := profile.ImageSet()
	order := models.SpeedOrder()
	slow := models.Profiles[order[len(order)-1]].Name

	urls := startWorkers(t, workers, sim.Deterministic{}, timeScale)
	est := core.NewWaitEstimator(models, workers)
	f := &Frontend{
		Profiles:  models,
		SLO:       slo,
		TimeScale: timeScale,
		Workers:   urls,
		// Deliberately slow selection with maximal batching: the backlog
		// outruns the drain, so admission pressure is guaranteed.
		Select: func(_, _ float64, n int, _ float64) (string, int) { return slow, n },
		Admit:  admit.Cap{Limit: capLimit, Est: est},
		Degrade: admit.NewDegrader(admit.DegradeConfig{
			MaxLevel: len(order) - 1, Window: 0.05, EnterShedRate: 0.05,
		}),
		RetryBudget: admit.NewRetryBudget(4, 1),
	}
	if err := f.Start(); err != nil {
		t.Fatal(err)
	}
	defer f.Stop()

	var served, shed atomic.Int64
	var maxBacklog atomic.Int64
	var wg sync.WaitGroup
	for l := 0; l < loops; l++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perLoop; i++ {
				resp, err := http.Post(f.URL()+"/query", "application/json", strings.NewReader(`{}`))
				if err != nil {
					t.Errorf("request failed: %v", err)
					return
				}
				switch resp.StatusCode {
				case http.StatusOK:
					var qr QueryResponse
					if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
						t.Errorf("malformed 200 body: %v", err)
					} else if qr.Model == "" || qr.Batch < 1 {
						t.Errorf("malformed response %+v", qr)
					}
					served.Add(1)
				case http.StatusTooManyRequests:
					if resp.Header.Get("Retry-After") == "" {
						t.Error("429 without Retry-After header")
					}
					shed.Add(1)
				default:
					t.Errorf("unexpected status %d", resp.StatusCode)
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}()
	}
	// Concurrent scrapes watch the backlog while the hammer runs: /stats
	// must answer throughout, and the admitted backlog must stay near the
	// cap (admission check and enqueue are not one atomic step, so up to
	// one in-flight request per client can overshoot).
	stop := make(chan struct{})
	var scrape sync.WaitGroup
	scrape.Add(1)
	go func() {
		defer scrape.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			st := f.Stats()
			sum := 0
			for _, q := range st.QueueLengths {
				sum += q
			}
			if int64(sum) > maxBacklog.Load() {
				maxBacklog.Store(int64(sum))
			}
		}
	}()
	wg.Wait()
	close(stop)
	scrape.Wait()

	total := served.Load() + shed.Load()
	if total != loops*perLoop {
		t.Fatalf("answered %d of %d requests (served=%d shed=%d)",
			total, loops*perLoop, served.Load(), shed.Load())
	}
	if shed.Load() == 0 {
		t.Fatal("cap admitter shed nothing while hammered past capacity")
	}
	if served.Load() == 0 {
		t.Fatal("everything was shed; admitter is not admitting")
	}
	if mb := maxBacklog.Load(); mb > capLimit+loops {
		t.Errorf("observed backlog %d exceeds cap %d plus client concurrency %d", mb, capLimit, loops)
	}

	// The frontend's own summary and exposition agree with the client's
	// count, and the admission series are visible on /metrics.
	st := f.Stats()
	if st.Shed != int(shed.Load()) {
		t.Errorf("stats shed %d != client-observed %d", st.Shed, shed.Load())
	}
	if st.Served != int(served.Load()) {
		t.Errorf("stats served %d != client-observed %d", st.Served, served.Load())
	}
	resp, err := http.Get(f.URL() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	for _, want := range []string{
		`ramsis_admit_shed_total{policy="cap"}`,
		"ramsis_admit_admitted_total",
		"ramsis_admit_est_wait_seconds",
		"ramsis_admit_degrade_level",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("/metrics missing %s", want)
		}
	}
}

// TestReplayDeadlineAdmissionRaisesGoodput is the serve-path half of
// the acceptance criterion: replaying arrivals at 3x the solved rate
// through the full HTTP stack, deadline admission must achieve strictly
// higher goodput than admitting everything.
func TestReplayDeadlineAdmissionRaisesGoodput(t *testing.T) {
	const workers, slo, solved, mult, dur, timeScale = 2, 0.150, 80.0, 3.0, 10.0, 25.0
	set := core.NewPolicySet(core.Config{
		Models: profile.ImageSet(), SLO: slo, Workers: workers,
		Arrival: dist.NewPoisson(solved), D: 50,
	}, nil)
	if err := set.GenerateLoads([]float64{solved}); err != nil {
		t.Fatal(err)
	}
	pinned := trace.Constant(solved, dur)
	arrivals := trace.PoissonArrivals(trace.Constant(mult*solved, dur), 5)

	run := func(a admit.Admitter) sim.Metrics {
		c := startCluster(t, ClusterConfig{
			Models:    profile.ImageSet(),
			Workers:   workers,
			SLO:       slo,
			TimeScale: timeScale,
			Select:    coverSelector(t, set),
			Monitor:   monitor.Oracle{Trace: pinned},
			Admit:     a,
			Seed:      1,
		})
		m, err := c.Frontend.Replay(context.Background(), arrivals)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}

	base := run(nil)
	est := core.NewWaitEstimator(profile.ImageSet(), workers)
	shedding := run(admit.Deadline{SLO: slo, Margin: 1, Est: est})

	if base.Shed != 0 {
		t.Fatalf("baseline shed %d with no admitter", base.Shed)
	}
	if shedding.Shed == 0 {
		t.Fatal("deadline admitter shed nothing at 3x the solved rate")
	}
	if shedding.Offered() != len(arrivals) || base.Offered() != len(arrivals) {
		t.Fatalf("offered %d/%d, want %d", shedding.Offered(), base.Offered(), len(arrivals))
	}
	gb, gs := base.GoodputRate(), shedding.GoodputRate()
	if gs <= gb {
		t.Errorf("deadline goodput %.4f not above no-shed %.4f (shed rate %.3f)",
			gs, gb, shedding.ShedRate())
	}
	t.Logf("serve goodput no-shed=%.4f deadline=%.4f shed=%d/%d", gb, gs, shedding.Shed, len(arrivals))
}
