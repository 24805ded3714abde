package serve

import (
	"encoding/json"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"ramsis/internal/adapt"
	"ramsis/internal/core"
	"ramsis/internal/dist"
	"ramsis/internal/monitor"
	"ramsis/internal/profile"
	"ramsis/internal/sched"
	"ramsis/internal/sim"
)

// TestFrontendDispatchDuringPolicySwap is the hot-swap half of the
// adaptation contract, run under -race by `make race`: policies are
// atomically swapped at high frequency while the frontend concurrently
// selects and dispatches live queries. Every query must get a complete
// decision from either the old or the new policy — never a torn one.
func TestFrontendDispatchDuringPolicySwap(t *testing.T) {
	const workers, slo, timeScale = 2, 0.150, 5.0
	models := profile.AblationImageSet()
	base := core.Config{
		Models:   models,
		SLO:      slo,
		Workers:  workers,
		Arrival:  dist.NewPoisson(20),
		D:        20,
		MaxQueue: 16,
	}
	gen := func(load float64) *core.Policy {
		cfg := base
		cfg.Arrival = dist.NewPoisson(load)
		pol, err := core.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return pol
	}
	p20, p200 := gen(20), gen(200)

	a, err := adapt.New(adapt.Config{Base: base, BucketSize: 20, Background: true}, p20)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Stop()

	urls := make([]string, workers)
	for i := 0; i < workers; i++ {
		w := NewWorker(models, sim.Deterministic{}, timeScale, int64(i+1))
		if err := w.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = w.Stop() })
		urls[i] = w.URL()
	}
	f := &Frontend{
		Profiles:  models,
		SLO:       slo,
		TimeScale: timeScale,
		Workers:   urls,
		Select:    sched.AdaptiveSelector(a),
		Monitor:   monitor.NewMovingAverage(0.5),
	}
	if err := f.Start(); err != nil {
		t.Fatal(err)
	}
	defer f.Stop()

	// Swapper: hammer Install while queries are in flight.
	stop := make(chan struct{})
	var swapper sync.WaitGroup
	swapper.Add(1)
	go func() {
		defer swapper.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if i%2 == 0 {
				a.Install(p200)
			} else {
				a.Install(p20)
			}
			time.Sleep(200 * time.Microsecond)
		}
	}()

	const n = 60
	var wg sync.WaitGroup
	responses := make([]QueryResponse, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			time.Sleep(time.Duration(i) * 10 * time.Millisecond)
			resp, err := http.Post(f.URL()+"/query", "application/json", strings.NewReader(`{}`))
			if err != nil {
				errs[i] = err
				return
			}
			defer resp.Body.Close()
			errs[i] = json.NewDecoder(resp.Body).Decode(&responses[i])
		}(i)
	}
	wg.Wait()
	close(stop)
	swapper.Wait()

	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("query %d failed mid-swap: %v", i, errs[i])
		}
		if responses[i].Model == "" || responses[i].Batch < 1 {
			t.Fatalf("query %d: torn decision %+v", i, responses[i])
		}
	}
	if s := a.Stats(); s.Swaps < 100 {
		t.Errorf("only %d swaps happened; the race window was barely exercised", s.Swaps)
	}
}
