package adapt

import (
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"ramsis/internal/core"
	"ramsis/internal/dist"
	"ramsis/internal/mdp"
	"ramsis/internal/profile"
	"ramsis/internal/telemetry"
)

// adaptBase is a small, fast generation problem (3-model ablation set) so
// adapter tests solve real MDPs in milliseconds.
func adaptBase() core.Config {
	return core.Config{
		Models:   profile.AblationImageSet(),
		SLO:      0.150,
		Workers:  4,
		Arrival:  dist.NewPoisson(20), // replaced per bucket
		D:        20,
		MaxQueue: 16,
	}
}

func initialPolicy(t *testing.T, load float64) *core.Policy {
	t.Helper()
	cfg := adaptBase()
	cfg.Arrival = dist.NewPoisson(load)
	pol, err := core.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return pol
}

func newAdapter(t *testing.T, cfg Config) *Adapter {
	t.Helper()
	if cfg.Base.Workers == 0 {
		cfg.Base = adaptBase()
	}
	a, err := New(cfg, initialPolicy(t, 20))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(a.Stop)
	return a
}

func TestAdapterDriftSolvesThenCacheHitsOnReturn(t *testing.T) {
	reg := telemetry.NewRegistry()
	a := newAdapter(t, Config{Band: 0.2, Dwell: 1, BucketSize: 20, Telemetry: reg})
	if got := a.ActiveBucket(); got != 20 {
		t.Fatalf("initial bucket %v, want 20", got)
	}

	// Sustained step 20 -> 120 QPS: confirmed after the 1 s dwell, solved
	// once (cache miss), hot-swapped.
	a.Observe(0, 120)
	a.Observe(0.5, 120)
	if s := a.Stats(); s.Swaps != 0 {
		t.Fatalf("swapped before dwell elapsed: %+v", s)
	}
	a.Observe(1.0, 120)
	s := a.Stats()
	if s.Resolves != 1 || s.CacheMisses != 1 || s.Swaps != 1 || s.ActiveBucket != 120 {
		t.Fatalf("after step up: %+v", s)
	}
	if pol := a.PolicyFor(120); pol == nil || pol.Load != 120 {
		t.Fatalf("PolicyFor(120) = %+v, want the freshly solved 120 policy", pol)
	}
	if n := len(a.set.Policies()); n != 2 {
		t.Fatalf("ladder has %d policies, want 2", n)
	}

	// Step back to the original rate: the initial policy is cached, so the
	// swap is a lookup — no new solve.
	a.Observe(10, 20)
	a.Observe(11, 20)
	s = a.Stats()
	if s.Resolves != 1 {
		t.Errorf("return to original rate re-solved: %+v", s)
	}
	if s.CacheHits != 1 || s.Swaps != 2 || s.ActiveBucket != 20 {
		t.Fatalf("after step back: %+v", s)
	}

	// Telemetry mirrors the counters.
	var b strings.Builder
	reg.WritePrometheus(&b)
	out := b.String()
	for _, want := range []string{
		"ramsis_adapt_resolves_total 1",
		"ramsis_adapt_cache_hits_total 1",
		"ramsis_adapt_cache_misses_total 1",
		"ramsis_adapt_swaps_total 2",
		"ramsis_adapt_rate_bucket 20",
		// The one resolve warm-started from the cached initial policy.
		"ramsis_adapt_warm_starts_total 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("telemetry missing %q", want)
		}
	}
	// Where the one re-solve's time went: iterations, build and solve of the
	// 120-QPS policy it produced.
	pol := a.PolicyFor(120)
	for name, want := range map[string]float64{
		telemetry.MetricAdaptResolveIterations:   float64(pol.Iterations),
		telemetry.MetricAdaptResolveBuildSeconds: pol.BuildTime.Seconds(),
		telemetry.MetricAdaptResolveSolveSeconds: pol.SolveTime.Seconds(),
	} {
		if got := reg.Gauge(name).Value(); got != want || got <= 0 {
			t.Errorf("%s = %v, want %v (> 0)", name, got, want)
		}
		if !strings.Contains(out, name+" ") {
			t.Errorf("exposition missing %s", name)
		}
	}
}

func TestAdapterOscillationNeverResolves(t *testing.T) {
	a := newAdapter(t, Config{Band: 0.2, Dwell: 1, BucketSize: 20})
	// Bursts shorter than the dwell, always returning to band: the
	// hysteresis must suppress every re-solve.
	for i := 0; i < 20; i++ {
		base := float64(i)
		a.Observe(base, 120)
		a.Observe(base+0.5, 120)
		a.Observe(base+0.8, 20)
	}
	if s := a.Stats(); s.Resolves != 0 || s.Swaps != 0 || s.CacheHits != 0 {
		t.Fatalf("oscillating rate triggered adaptation: %+v", s)
	}
}

func TestAdapterSubBucketDriftIsFree(t *testing.T) {
	// Out of the hysteresis band but within the active rate bucket: the
	// active policy already covers the rate, so no solve and no swap.
	a := newAdapter(t, Config{Band: 0.1, Dwell: 1, BucketSize: 100})
	a.Observe(0, 28)
	a.Observe(1, 28) // bucketOf(28, 100) = 100 = active bucket
	if s := a.Stats(); s.Resolves != 0 || s.Swaps != 0 || s.CacheMisses != 0 {
		t.Fatalf("sub-bucket drift adapted: %+v", s)
	}
	// The detector recentered, so the new rate does not keep firing.
	a.Observe(2, 28)
	a.Observe(50, 28)
	if s := a.Stats(); s.Resolves != 0 || s.Swaps != 0 {
		t.Fatalf("recentered rate kept firing: %+v", s)
	}
}

func TestAdapterDefaultBucketSeesSmallRateDrift(t *testing.T) {
	// Regression: with the bucket size left to default, a small deployment
	// (20 QPS) drifting well outside the band must still re-solve. A fixed
	// coarse default (e.g. the 100-QPS on-demand rung) aliases every rate
	// below 150 QPS into one bucket, so the sub-bucket short-circuit
	// swallowed genuine drift forever.
	a := newAdapter(t, Config{Band: 0.2, Dwell: 1})
	if got := a.ActiveBucket(); got != 20 {
		t.Fatalf("initial bucket %v, want 20 (bucket size = band width = 4)", got)
	}
	a.Observe(0, 40)
	a.Observe(1, 40) // 2× the solved-for rate, sustained past the dwell
	s := a.Stats()
	if s.Resolves != 1 || s.Swaps != 1 || s.ActiveBucket != 40 {
		t.Fatalf("default bucket swallowed a 2x drift: %+v", s)
	}
}

func TestAdapterBackgroundResolve(t *testing.T) {
	a := newAdapter(t, Config{Band: 0.2, Dwell: -1, BucketSize: 20, Background: true})
	a.Observe(0, 120) // negative dwell: fires on the first out-of-band reading
	deadline := time.Now().Add(30 * time.Second)
	for a.Stats().Swaps == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("background resolve never swapped: %+v", a.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	if s := a.Stats(); s.Resolves != 1 || s.ActiveBucket != 120 {
		t.Fatalf("after background resolve: %+v", s)
	}
}

func TestAdapterResolveErrorKeepsOldPolicy(t *testing.T) {
	// An unsolvable base (no models) fails generation; the previous policy
	// must stay active and the failure must be counted.
	cfg := Config{Band: 0.2, Dwell: -1, BucketSize: 20}
	cfg.Base = adaptBase()
	a, err := New(cfg, initialPolicy(t, 20))
	if err != nil {
		t.Fatal(err)
	}
	defer a.Stop()
	a.cfg.Base.Models = profile.Set{}
	before := a.PolicyFor(20)
	a.Observe(0, 120)
	s := a.Stats()
	if s.ResolveErrors != 1 || s.Swaps != 0 || s.ActiveBucket != 20 {
		t.Fatalf("after failed resolve: %+v", s)
	}
	if a.PolicyFor(20) != before {
		t.Error("failed resolve replaced the active policy")
	}
	// The resolving latch must be released so the next drift retries.
	a.Observe(1, 200)
	if s := a.Stats(); s.ResolveErrors != 2 {
		t.Fatalf("failed resolve latched the adapter: %+v", s)
	}
}

// TestAdapterWarmStartFewerIterations pins the warm-start win: a drift
// re-solve seeds value iteration from the nearest cached bucket's converged
// vector and reaches the same policy in strictly fewer iterations than the
// identical problem solved cold from zeros.
func TestAdapterWarmStartFewerIterations(t *testing.T) {
	// Cold reference: the 120-QPS bucket's MDP solved from zeros by the
	// Jacobi sweep. (A cold prioritized solve takes 10 sweep-equivalents to
	// the warm one's 11: DESIGN.md § Solver performance.)
	cfg := adaptBase()
	cfg.Arrival = dist.NewPoisson(120)
	m, err := core.BuildWorkerMDP(cfg)
	if err != nil {
		t.Fatal(err)
	}
	jacobi, err := m.ValueIteration(mdp.SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}

	a := newAdapter(t, Config{Band: 0.2, Dwell: -1, BucketSize: 20})
	a.Observe(0, 120) // fires immediately (negative dwell), warm-starts off the cached 20-QPS policy
	s := a.Stats()
	if s.Resolves != 1 || s.WarmStarts != 1 {
		t.Fatalf("after drift: %+v, want 1 resolve and 1 warm start", s)
	}
	if s.LastResolveIterations == 0 {
		t.Fatal("LastResolveIterations not recorded")
	}
	if s.LastResolveIterations >= uint64(jacobi.Iterations) {
		t.Errorf("warm-started resolve took %d iterations, cold Jacobi solve %d — want strictly fewer",
			s.LastResolveIterations, jacobi.Iterations)
	}

	// Same fixed point: the warm-started policy decides identically to a
	// cold generation everywhere.
	cold, err := core.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	warm := a.PolicyFor(120)
	if warm.Load != 120 {
		t.Fatalf("PolicyFor(120).Load = %v", warm.Load)
	}
	for s := range cold.Choices {
		if warm.Choices[s] != cold.Choices[s] {
			t.Fatalf("state %d: warm choice %+v != cold %+v", s, warm.Choices[s], cold.Choices[s])
		}
	}
}

// TestStoredHitAndDonor pins the ladder lookup a drift makes: a policy in
// the target bucket is a hit; otherwise the nearest bucket donates, the
// lower one on a tie.
func TestStoredHitAndDonor(t *testing.T) {
	ladder := func(size float64, loads ...float64) *Adapter {
		a := &Adapter{cfg: Config{BucketSize: size}, set: core.NewPolicySet(core.Config{}, nil)}
		for _, l := range loads {
			a.set.Insert(&core.Policy{Load: l})
		}
		return a
	}
	a := ladder(20, 20, 120, 300)
	for _, tc := range []struct {
		bucket, hit, donor float64 // 0 = none
	}{
		{100, 0, 120},
		{70, 0, 20}, // equidistant from 20 and 120
		{120, 120, 0},
		{20, 20, 0},
		{1000, 0, 300},
	} {
		hit, donor := a.stored(tc.bucket)
		if load(hit) != tc.hit || load(donor) != tc.donor {
			t.Errorf("stored(%v) = hit %v, donor %v; want hit %v, donor %v",
				tc.bucket, load(hit), load(donor), tc.hit, tc.donor)
		}
	}
	// An off-grid initial policy is found under the bucket it quantizes to.
	if hit, _ := ladder(100, 1617).stored(1600); load(hit) != 1617 {
		t.Errorf("stored(1600) over a 1617-QPS policy = %v, want a hit", load(hit))
	}
	if hit, donor := ladder(20).stored(20); hit != nil || donor != nil {
		t.Errorf("empty ladder: hit %v, donor %v", hit, donor)
	}
}

func load(p *core.Policy) float64 {
	if p == nil {
		return 0
	}
	return p.Load
}

// TestAdapterLadderRemembersEveryBucket drifts through 20 buckets, then
// back to the first: the ladder keeps every policy it was given, so the
// return installs the initial policy and solves nothing.
func TestAdapterLadderRemembersEveryBucket(t *testing.T) {
	a := newAdapter(t, Config{Band: 0.01, Dwell: -1, BucketSize: 20})
	initial := a.PolicyFor(20)
	var now float64
	for rate := 40.0; rate <= 420; rate += 20 {
		now++
		a.Observe(now, rate)
	}
	s := a.Stats()
	if s.Resolves != 20 || s.ActiveBucket != 420 {
		t.Fatalf("after 20 drifts: %+v", s)
	}
	a.Observe(now+1, 20)
	s = a.Stats()
	if s.Resolves != 20 || s.CacheHits != 1 || s.ActiveBucket != 20 {
		t.Fatalf("return to the first bucket: %+v, want no solve and one hit", s)
	}
	if a.PolicyFor(20) != initial {
		t.Error("return to the first bucket did not serve the initial policy")
	}
}

// TestAdapterInstalledBucketIsHit publishes a policy with Install, drifts
// away and back to its bucket: the published policy serves with no solve.
func TestAdapterInstalledBucketIsHit(t *testing.T) {
	a := newAdapter(t, Config{Band: 0.2, Dwell: -1, BucketSize: 20})
	p220 := initialPolicy(t, 220)
	a.Install(p220)
	if b := a.ActiveBucket(); b != 220 {
		t.Fatalf("Install filed a 220-QPS policy under bucket %g", b)
	}
	a.Observe(0, 120) // out of the band around 20: solves the 120 bucket
	a.Observe(1, 220)
	s := a.Stats()
	if s.Resolves != 1 || s.CacheHits != 1 || s.ActiveBucket != 220 {
		t.Fatalf("drift back to the installed bucket: %+v, want one solve and one hit", s)
	}
	if a.PolicyFor(220) != p220 {
		t.Error("the installed policy does not serve its bucket")
	}
}

func TestNewRejectsBandOutsideUnitInterval(t *testing.T) {
	pol := &core.Policy{Load: 20}
	for _, band := range []float64{-0.5, 1, 1.5, math.NaN()} {
		if _, err := New(Config{Base: adaptBase(), Band: band}, pol); err == nil || !strings.Contains(err.Error(), "band") {
			t.Errorf("New(band %v) = %v, want an error naming the band", band, err)
		}
	}
	for _, band := range []float64{0, 0.2, 0.99} {
		a, err := New(Config{Base: adaptBase(), Band: band}, pol)
		if err != nil {
			t.Errorf("New(band %v) = %v", band, err)
			continue
		}
		a.Stop()
	}
}

func TestAdapterNilInitial(t *testing.T) {
	if _, err := New(Config{Base: adaptBase()}, nil); err == nil {
		t.Fatal("New accepted a nil initial policy")
	}
}

func TestAdapterConcurrentLookupAndSwap(t *testing.T) {
	// The -race half of the hot-swap contract: lookups race against
	// installs and must always see a complete, non-nil policy.
	a := newAdapter(t, Config{Band: 0.2, Dwell: 1, BucketSize: 20})
	p120 := func() *core.Policy {
		cfg := adaptBase()
		cfg.Arrival = dist.NewPoisson(120)
		pol, err := core.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return pol
	}()
	initial := a.PolicyFor(20)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if pol := a.PolicyFor(float64(20 + (i+g)%120)); pol == nil {
					t.Error("lookup observed an empty policy set mid-swap")
					return
				}
			}
		}(g)
	}
	for i := 0; i < 200; i++ {
		if i%2 == 0 {
			a.Install(p120)
		} else {
			a.Install(initial)
		}
	}
	close(stop)
	wg.Wait()
	if s := a.Stats(); s.Swaps < 200 {
		t.Fatalf("swaps = %d, want >= 200", s.Swaps)
	}
}

// TestAdapterConcurrentPrioritizedResolve hammers the fast-resolve route
// under -race: background drift re-solves on the prioritized solver racing
// against lock-free dispatch lookups. Every lookup must see a complete
// policy and every re-solved policy must decide like a cold generation.
func TestAdapterConcurrentPrioritizedResolve(t *testing.T) {
	a := newAdapter(t, Config{
		Base: adaptBase(), Band: 0.2, Dwell: -1, BucketSize: 20, Background: true,
	})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if pol := a.PolicyFor(float64(20 + (i+g)%200)); pol == nil {
					t.Error("lookup observed an empty policy set mid-swap")
					return
				}
			}
		}(g)
	}
	rates := []float64{120, 20, 220, 120, 20}
	for i, r := range rates {
		a.Observe(float64(i), r)
		deadline := time.Now().Add(30 * time.Second)
		for a.Stats().Swaps < uint64(i+1) {
			if time.Now().After(deadline) {
				t.Fatalf("swap %d never happened: %+v", i+1, a.Stats())
			}
			time.Sleep(time.Millisecond)
		}
	}
	close(stop)
	wg.Wait()

	// The warm-started re-solve reached the same argmaxes as a cold
	// generation of the same bucket.
	ref := adaptBase()
	ref.Arrival = dist.NewPoisson(220)
	cold, err := core.Generate(ref)
	if err != nil {
		t.Fatal(err)
	}
	warm := a.PolicyFor(220)
	if warm.Load != 220 {
		t.Fatalf("PolicyFor(220).Load = %v", warm.Load)
	}
	for s := range cold.Choices {
		if warm.Choices[s] != cold.Choices[s] {
			t.Fatalf("state %d: warm choice %+v != cold %+v",
				s, warm.Choices[s], cold.Choices[s])
		}
	}
}
