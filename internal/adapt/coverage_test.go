package adapt

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ramsis/internal/core"
	"ramsis/internal/dist"
	"ramsis/internal/telemetry"
)

// ladder generates a policy set over adaptBase at the given loads. arrival,
// when set, is the set's arrival family (Poisson otherwise).
func ladder(t *testing.T, arrival func(float64) dist.Process, loads ...float64) *core.PolicySet {
	t.Helper()
	set := core.NewPolicySet(adaptBase(), arrival)
	if err := set.GenerateLoads(loads); err != nil {
		t.Fatal(err)
	}
	return set
}

// gate holds every generation of a load above top at the set's arrival
// function until release: entered is closed when the first one arrives.
type gate struct {
	top      float64
	entered  chan struct{}
	released chan struct{}
	once     sync.Once
}

func newGate(top float64) *gate {
	return &gate{top: top, entered: make(chan struct{}), released: make(chan struct{})}
}

func (g *gate) arrival(load float64) dist.Process {
	if load > g.top {
		g.once.Do(func() { close(g.entered) })
		<-g.released
	}
	return dist.NewPoisson(load)
}

func loads(set *core.PolicySet) []float64 {
	var out []float64
	for _, p := range set.Policies() {
		out = append(out, p.Load)
	}
	return out
}

// TestCoverageGeneratesOnDemand is §3.2.2's rule through an inline coverage
// adapter: a covered load is the lowest rung meeting it and generates
// nothing; a load past the ladder generates its rung, rounded up to the
// next multiple of 100 QPS, into the caller's set, and the decision that
// fired the trigger is answered from it.
func TestCoverageGeneratesOnDemand(t *testing.T) {
	set := ladder(t, nil, 100, 200, 400)
	a := NewCoverage(set, false, nil)
	defer a.Stop()
	for _, c := range []struct{ load, want float64 }{{50, 100}, {100, 100}, {150, 200}, {399, 400}, {400, 400}} {
		if p := a.Policy(0, c.load); p.Load != c.want {
			t.Errorf("Policy(%v).Load = %v, want %v (lowest load meeting demand)", c.load, p.Load, c.want)
		}
	}
	if s := a.Stats(); s.Resolves != 0 {
		t.Fatalf("covered loads generated: %+v", s)
	}
	if p := a.Policy(0, 450); p.Load != 500 {
		t.Errorf("on-demand policy load = %v, want 500", p.Load)
	}
	if got := loads(set); len(got) != 4 || got[3] != 500 {
		t.Errorf("ladder = %v, want the 500 rung inserted", got)
	}
	if s := a.Stats(); s.Resolves != 1 || s.Swaps != 1 || s.ResolveErrors != 0 {
		t.Errorf("after one on-demand rung: %+v", s)
	}
	// An empty ladder has no answer, and nothing to generate from.
	empty := NewCoverage(core.NewPolicySet(adaptBase(), nil), false, nil)
	defer empty.Stop()
	if p := empty.Policy(0, 100); p != nil || empty.Stats().Resolves != 0 {
		t.Errorf("empty ladder answered %v, %+v", p, empty.Stats())
	}
}

// TestCoverageStaleLookupGeneratesNothing is a decision whose ladder lookup
// came before another's generation finished: it reaches cover with a load
// the ladder now covers, and is answered from the new rung instead of
// generating it again.
func TestCoverageStaleLookupGeneratesNothing(t *testing.T) {
	a := NewCoverage(ladder(t, nil, 100), false, nil)
	defer a.Stop()
	if p := a.Policy(0, 180); p.Load != 200 {
		t.Fatalf("Policy(180).Load = %v, want 200", p.Load)
	}
	if p := a.cover(180); p.Load != 200 || a.Stats().Resolves != 1 {
		t.Errorf("stale lookup got the %v rung, %+v; want the 200 rung and one generation", p.Load, a.Stats())
	}
}

// TestCoverageBackgroundStaleWindow pins the background trigger's stale
// window: the decision that fires it returns at once with the top rung,
// every decision gets the top rung until Stats().Swaps increments, and
// from then on the new rung — the same policy an inline adapter generates
// for the same load.
func TestCoverageBackgroundStaleWindow(t *testing.T) {
	set := ladder(t, nil, 100)
	top := set.Policies()[0]
	a := NewCoverage(set, true, nil)
	defer a.Stop()
	if p := a.Policy(0, 80); p != top {
		t.Fatalf("Policy(80) = %v, want the 100 rung", p)
	}
	start := time.Now()
	if p := a.Policy(0, 180); p != top {
		t.Fatalf("the firing decision got %v, want the top rung", p)
	}
	if d := time.Since(start); d > 100*time.Millisecond {
		t.Errorf("background trigger blocked the decision for %v", d)
	}
	deadline := time.Now().Add(2 * time.Minute)
	var fresh *core.Policy
	for stale := 1; ; stale++ {
		swapped := a.Stats().Swaps > 0
		p := a.Policy(0, 180)
		if swapped {
			if p.Load != 200 {
				t.Fatalf("after the swap a decision got the %v rung, want 200", p.Load)
			}
			fresh = p
			t.Logf("%d decisions in the stale window", stale)
			break
		}
		if p != top && p.Load != 200 {
			t.Fatalf("stale decision got the %v rung", p.Load)
		}
		if time.Now().After(deadline) {
			t.Fatal("background generation never swapped")
		}
	}
	if s := a.Stats(); s.Resolves != 1 || s.Swaps != 1 {
		t.Errorf("one uncovered load generated %+v, want one rung", s)
	}

	inline := NewCoverage(ladder(t, nil, 100), false, nil)
	defer inline.Stop()
	want := inline.Policy(0, 180)
	if want.Load != fresh.Load || len(want.Choices) != len(fresh.Choices) {
		t.Fatalf("inline rung %v (%d states), background %v (%d)", want.Load, len(want.Choices), fresh.Load, len(fresh.Choices))
	}
	for s := range want.Choices {
		if want.Choices[s] != fresh.Choices[s] {
			t.Fatalf("state %d: background choice %+v, inline %+v", s, fresh.Choices[s], want.Choices[s])
		}
	}
}

// TestCoverageFailedGenerationRetries: a failed on-demand generation is
// counted, in Stats and in the registry, leaves the ladder as it was, and
// does not latch the adapter — the next uncovered decision retries.
func TestCoverageFailedGenerationRetries(t *testing.T) {
	var fail atomic.Bool
	set := ladder(t, func(load float64) dist.Process {
		if fail.Load() {
			return nil // Generate rejects a nil arrival
		}
		return dist.NewPoisson(load)
	}, 100)
	top := set.Policies()[0]
	reg := telemetry.NewRegistry()
	a := NewCoverage(set, false, reg)
	defer a.Stop()

	fail.Store(true)
	if p := a.Policy(0, 180); p != top {
		t.Fatalf("a failed generation answered %v, want the top rung", p)
	}
	if s := a.Stats(); s.Resolves != 1 || s.ResolveErrors != 1 || s.Swaps != 0 {
		t.Fatalf("after a failed generation: %+v", s)
	}
	if got := loads(set); len(got) != 1 {
		t.Fatalf("a failed generation changed the ladder to %v", got)
	}
	var b strings.Builder
	reg.WritePrometheus(&b)
	for _, want := range []string{"ramsis_adapt_resolves_total 1", "ramsis_adapt_resolve_errors_total 1", "ramsis_adapt_swaps_total 0"} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("telemetry missing %q", want)
		}
	}

	fail.Store(false)
	if p := a.Policy(0, 180); p.Load != 200 {
		t.Fatalf("the retry answered the %v rung, want 200", p.Load)
	}
	if s := a.Stats(); s.Resolves != 2 || s.ResolveErrors != 1 || s.Swaps != 1 {
		t.Errorf("after the retry: %+v", s)
	}
}

// TestCoverageStopWaitsForGeneration: Stop returns only once the
// generation in flight has, and after it no trigger fires.
func TestCoverageStopWaitsForGeneration(t *testing.T) {
	g := newGate(100)
	set := ladder(t, g.arrival, 100)
	a := NewCoverage(set, true, nil)
	a.Policy(0, 180)
	<-g.entered
	stopped := make(chan struct{})
	go func() {
		a.Stop()
		close(stopped)
	}()
	select {
	case <-stopped:
		t.Fatal("Stop returned while a generation was in flight")
	case <-time.After(50 * time.Millisecond):
	}
	close(g.released)
	<-stopped
	if got := loads(set); len(got) != 2 || got[1] != 200 {
		t.Errorf("ladder after Stop = %v, want the 200 rung inserted", got)
	}
	if p := a.Policy(0, 250); p.Load != 200 || a.Stats().Resolves != 1 {
		t.Errorf("a trigger fired after Stop: %v, %+v", p.Load, a.Stats())
	}
	a.Stop() // repeating it does nothing

	// The drift trigger too: Observe after Stop confirms nothing.
	d := newAdapter(t, Config{Band: 0.2, Dwell: -1, BucketSize: 20})
	d.Stop()
	d.Observe(0, 120)
	if s := d.Stats(); s.Resolves != 0 || s.Swaps != 0 {
		t.Errorf("drift adapter adapted after Stop: %+v", s)
	}
}

// TestPolicySetConcurrentAccess hammers the ladder under -race: concurrent
// lookups — covered and uncovered decisions, PolicyFor, Policies — while an
// on-demand generation is in flight. Uncovered decisions get the top rung
// and start no second generation; the rung lands once the generation ends.
func TestPolicySetConcurrentAccess(t *testing.T) {
	g := newGate(200)
	set := ladder(t, g.arrival, 100, 200)
	a := NewCoverage(set, true, nil)
	defer a.Stop()
	a.Policy(0, 250)
	<-g.entered
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				load := float64(50 + (w*37+i*13)%250)
				if p := a.Policy(0, load); p == nil || (load <= 200 && p.Load < load) || (load > 200 && p.Load != 200) {
					t.Errorf("Policy(%v) = %v during a generation", load, p)
					return
				}
				if _, err := set.PolicyFor(load); err != nil {
					t.Errorf("PolicyFor(%v): %v", load, err)
					return
				}
				_ = set.Policies()
			}
		}(w)
	}
	wg.Wait()
	close(g.released)
	a.Stop()
	if s := a.Stats(); s.Resolves != 1 || s.Swaps != 1 {
		t.Errorf("concurrent uncovered decisions generated %+v, want one rung", s)
	}
	if p := a.Policy(0, 250); p.Load != 300 {
		t.Errorf("Policy(250) after the generation = %v, want the 300 rung", p.Load)
	}
}
