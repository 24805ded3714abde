package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"ramsis/internal/core"
	"ramsis/internal/profile"
	"ramsis/internal/tenant"
)

// testTenants keeps modeled SLOs generous relative to TimeScale: wall
// overheads (HTTP dispatch, queueing) are multiplied by TimeScale when
// they land in modeled latency, so tight modeled SLOs at high TimeScale
// would measure the harness, not the policy.
func testTenants() []tenant.Tenant {
	return []tenant.Tenant{
		{Name: "gold", Class: "interactive", SLOMS: 2000, Weight: 2, RateQPS: 10},
		{Name: "silver", Class: "standard", SLOMS: 4000, Weight: 1, RateQPS: 8},
		{Name: "bronze", Class: "batch", SLOMS: 8000, Weight: 1, RateQPS: 12},
	}
}

// startSharded boots a sharded deployment, on the pipe network unless cfg
// names another; the test's cleanup stops it.
func startSharded(t *testing.T, cfg ShardedConfig) *ShardedCluster {
	t.Helper()
	if cfg.net == nil {
		cfg.net = pipes
	}
	c, err := StartShardedCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Stop)
	return c
}

// inject offers rate wall-QPS for dur on tenant name via the in-process
// route, fire-and-forget (responses are buffered; dispatch never blocks).
// Pacing is batched — catch up to the schedule every tick — because
// per-query sleeps cannot reach thousands of QPS.
func inject(g *Gateway, name string, rate float64, dur time.Duration) {
	const tick = 2 * time.Millisecond
	start := time.Now()
	sent := 0
	for {
		elapsed := time.Since(start)
		if elapsed >= dur {
			return
		}
		for want := int(rate * elapsed.Seconds()); sent < want; sent++ {
			_, _ = g.Route(name)
		}
		time.Sleep(tick)
	}
}

// TestShardedClusterEndToEnd is also the gateway's smoke test over real TCP
// ports, its workers' and its own.
func TestShardedClusterEndToEnd(t *testing.T) {
	c := startSharded(t, ShardedConfig{
		Models:          profile.AblationImageSet(),
		Tenants:         testTenants(),
		Shards:          2,
		WorkersPerShard: 2,
		TimeScale:       50,
		Seed:            1,
		D:               50,
		Fair:            tenant.FairConfig{BurstSec: 0.5},
		net:             tcp{},
	})

	// One query per tenant over HTTP, via header and via query parameter.
	for _, tn := range []string{"gold", "silver", "bronze"} {
		req, _ := http.NewRequest(http.MethodPost, c.URL()+"/query", bytes.NewReader([]byte(`{}`)))
		req.Header.Set("X-Tenant", tn)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var qr QueryResponse
		if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || qr.Error != "" {
			t.Fatalf("tenant %s: status %s, resp %+v", tn, resp.Status, qr)
		}
	}
	resp, err := http.Post(c.URL()+"/query?tenant=nosuch", "application/json", bytes.NewReader([]byte(`{}`)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown tenant: status %s, want 400", resp.Status)
	}
	if resp, err = http.Get(c.URL() + "/query"); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /query: status %s, want 405", resp.Status)
	}

	// /stats must carry the per-tenant breakdown with the served counts.
	if resp, err = http.Get(c.URL() + "/stats"); err != nil {
		t.Fatal(err)
	}
	var gs GatewayStats
	if err := json.NewDecoder(resp.Body).Decode(&gs); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if gs.Served != 3 || gs.Shards != 2 {
		t.Errorf("stats served=%d shards=%d, want 3 and 2", gs.Served, gs.Shards)
	}
	for _, tn := range []string{"gold", "silver", "bronze"} {
		ts, ok := gs.Tenants[tn]
		if !ok || ts.Served != 1 {
			t.Errorf("tenant %s stats %+v, want served 1", tn, ts)
		}
	}
	total := 0
	for _, n := range gs.ShardQueries {
		total += n
	}
	if total != 3 {
		t.Errorf("shard queries %v, want 3 total", gs.ShardQueries)
	}

	// The shared exposition must include tenant and shard series.
	if resp, err = http.Get(c.URL() + "/metrics"); err != nil {
		t.Fatal(err)
	}
	body := new(bytes.Buffer)
	_, _ = body.ReadFrom(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		`ramsis_tenant_queries_total{tenant="gold"}`,
		`ramsis_shard_depth{shard="1"}`,
		`ramsis_worker_healthy{worker="3"}`, // shard 1's second worker, offset applied
	} {
		if !bytes.Contains(body.Bytes(), []byte(want)) {
			t.Errorf("exposition missing %s", want)
		}
	}
}

// TestShardedFairnessUnderOverload is the live half of the PR's core
// claim: one tenant offering 4× its contract is clamped to its fair share
// while compliant tenants keep goodput ≥ 0.9.
func TestShardedFairnessUnderOverload(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second live soak")
	}
	if RaceEnabled {
		// The goodput floor measures real wall-clock serving; the race
		// detector slows dispatch several fold, which at TimeScale 10
		// lands as modeled SLO violations. Concurrency coverage of the
		// sharded path under -race comes from TestShardedReloadHammer.
		t.Skip("goodput thresholds are wall-clock-calibrated; meaningless under -race")
	}
	const timeScale = 10
	c := startSharded(t, ShardedConfig{
		Models:          profile.AblationImageSet(),
		Tenants:         testTenants(),
		Shards:          2,
		WorkersPerShard: 2,
		TimeScale:       timeScale,
		Seed:            2,
		D:               50,
		ShardBy:         "p2c",
		Fair:            tenant.FairConfig{BurstSec: 0.5},
	})

	// A tenant contracted at R modeled QPS must be offered R×TimeScale
	// wall QPS (modeled time runs TimeScale× faster than wall); bronze
	// offers 4× its contract.
	const wallDur = 3 * time.Second
	var wg sync.WaitGroup
	for name, wallRate := range map[string]float64{
		"gold": 10 * timeScale, "silver": 8 * timeScale, "bronze": 4 * 12 * timeScale,
	} {
		wg.Add(1)
		go func(name string, rate float64) {
			defer wg.Done()
			inject(c.Gateway, name, rate, wallDur)
		}(name, wallRate)
	}
	wg.Wait()
	time.Sleep(300 * time.Millisecond) // drain in-flight batches

	gs := c.Gateway.Stats()
	for _, tn := range []string{"gold", "silver"} {
		ts := gs.Tenants[tn]
		if ts.Goodput < 0.9 {
			t.Errorf("compliant tenant %s goodput %.3f < 0.9 (%+v)", tn, ts.Goodput, ts)
		}
	}
	over := gs.Tenants["bronze"]
	if over.Shed == 0 {
		t.Errorf("4× tenant was never shed: %+v", over)
	}
	if over.Served == 0 {
		t.Error("4× tenant starved")
	}
	if over.Served+over.Shed < 2*(gs.Tenants["silver"].Served+gs.Tenants["silver"].Shed) {
		t.Errorf("bronze offered %d, want ≥ 2× silver's %d — injector fell behind",
			over.Served+over.Shed, gs.Tenants["silver"].Served+gs.Tenants["silver"].Shed)
	}
}

// TestShardedReloadHammer drives concurrent traffic through the gateway
// while the tenant config is hot-reloaded underneath it — the -race run
// over this test is the PR's concurrency acceptance gate.
func TestShardedReloadHammer(t *testing.T) {
	dir := t.TempDir()
	file := filepath.Join(dir, "tenants.json")
	writeTenants := func(ts []tenant.Tenant) {
		data, err := json.Marshal(ts)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(file, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	base := testTenants()
	writeTenants(base)

	c := startSharded(t, ShardedConfig{
		Models:          profile.AblationImageSet(),
		Tenants:         base,
		TenantFile:      file,
		Shards:          2,
		WorkersPerShard: 2,
		TimeScale:       50,
		Seed:            3,
		D:               50,
		Fair:            tenant.FairConfig{BurstSec: 0.5},
	})

	stop := make(chan struct{})
	reloaderDone := make(chan error, 1)
	go func() {
		// Alternate between the base set and one with an extra tenant and
		// shifted weights, through the HTTP reload path.
		extra := append(append([]tenant.Tenant{}, base...),
			tenant.Tenant{Name: "trial", SLOMS: 3000, Weight: 0.5, RateQPS: 10})
		extra[0].Weight = 3
		flip := false
		for {
			select {
			case <-stop:
				reloaderDone <- nil
				return
			default:
			}
			if flip {
				writeTenants(extra)
			} else {
				writeTenants(base)
			}
			flip = !flip
			resp, err := pipeClient.Post(c.URL()+"/reload", "application/json", nil)
			if err != nil {
				reloaderDone <- err
				return
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				reloaderDone <- fmt.Errorf("reload: status %s", resp.Status)
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()

	const perTenant = 400
	var wg sync.WaitGroup
	for _, tn := range []string{"gold", "silver", "bronze", "trial"} {
		wg.Add(1)
		go func(tn string) {
			defer wg.Done()
			for i := 0; i < perTenant; i++ {
				_, eerr := c.Gateway.Route(tn)
				// "trial" flips between registered and unknown; both
				// outcomes are legal mid-reload.
				if eerr != nil && eerr.Status == http.StatusServiceUnavailable {
					t.Errorf("tenant %s: unexpected shutdown error", tn)
					return
				}
				time.Sleep(time.Millisecond)
			}
		}(tn)
	}
	wg.Wait()
	close(stop)
	if err := <-reloaderDone; err != nil {
		t.Fatal(err)
	}

	gs := c.Gateway.Stats()
	if gs.TenantVersion < 2 {
		t.Errorf("tenant version %d, want ≥ 2 after reloads", gs.TenantVersion)
	}
	for _, tn := range []string{"gold", "silver", "bronze"} {
		ts := gs.Tenants[tn]
		if ts.Served+ts.Shed == 0 {
			t.Errorf("tenant %s made no progress across reloads: %+v", tn, ts)
		}
	}
}

// heldClock is a clock held at one modeled instant: it never moves, and a
// sleep returns at once.
type heldClock float64

func (c heldClock) now() float64 { return float64(c) }
func (heldClock) sleep(float64)  {}

// TestShardedPlaneReadsOneClock starts a plane whose clock is held at one
// modeled instant and routes one query through it. The gateway's and the
// shard's fragments, the admit and select decisions and the tenant's rate
// gauge at scrape must all read that instant: a process or gauge on a clock
// of its own reads another.
func TestShardedPlaneReadsOneClock(t *testing.T) {
	const instant = 7.25
	cfg := burstPlane()
	cfg.clock = heldClock(instant)
	c := startSharded(t, cfg)
	if r, eerr := c.Gateway.Do("gold"); eerr != nil || r.Error != "" {
		t.Fatalf("query not served: %+v, %v", r, eerr)
	}

	// The worker's fragment carries no arrival; the gateway's and the
	// serving shard's carry the query's.
	var planeFragments int
	for _, src := range c.Gateway.TraceSources {
		for _, qt := range src.Snapshot() {
			if qt.Process == "gateway" || strings.HasPrefix(qt.Process, "shard-") {
				planeFragments++
				if qt.Arrival != instant {
					t.Errorf("%s fragment arrival %v, want %v", qt.Process, qt.Arrival, instant)
				}
			}
		}
	}
	if planeFragments != 2 {
		t.Errorf("%d gateway and shard fragments, want 2", planeFragments)
	}
	kinds := map[string]bool{}
	for _, d := range c.Gateway.Decisions.Snapshot() {
		kinds[d.Kind] = true
		if d.Time != instant {
			t.Errorf("%s decision at %v, want %v", d.Kind, d.Time, instant)
		}
	}
	if !kinds["admit"] || !kinds["select"] {
		t.Errorf("decision kinds %v, want admit and select", kinds)
	}
	// One admitted arrival inside the 0.5 s window reads 2 QPS at the
	// instant it arrived; a later clock would have evicted it.
	exp := scrape(t, c.URL()+"/metrics")
	if rate := metricValue(t, exp, `ramsis_tenant_rate_qps{tenant="gold"}`); rate != 1/monitorWindow {
		t.Errorf("gold rate at scrape %v QPS, want %v", rate, 1/monitorWindow)
	}
}

// TestShardedPlaneSolvesForItsBalancer starts the plane under each
// balancing strategy and requires one value throughout: every shard routes
// with the balancer it names, and every tenant's policies — the initial
// solve and a drift adapter's re-solve — are solved for it (§3.2.1,
// Appendix I), so a policy's expectations hold behind the balancer it runs.
func TestShardedPlaneSolvesForItsBalancer(t *testing.T) {
	for _, c := range []struct {
		balancing core.Balancing
		name      string
	}{{core.RoundRobin, "rr"}, {core.ShortestQueueFirst, "jsq"}, {core.PowerOfTwoChoices, "p2c"}} {
		t.Run(c.name, func(t *testing.T) {
			cfg := burstPlane()
			cfg.Balancing = c.balancing
			cfg.Adaptive = true
			plane := startSharded(t, cfg)
			for s, fe := range plane.shards {
				if got := fe.Balancer.Name(); got != c.name {
					t.Errorf("shard %d routes by %s, want %s", s, got, c.name)
				}
			}
			for i, a := range plane.adapters {
				initial := a.PolicyFor(0)
				if initial.Balancing != c.balancing {
					t.Errorf("tenant %d solved for %v, want %v", i, initial.Balancing, c.balancing)
				}
				// Confirm a drift to four times the solved rate: the
				// adapter re-solves in the background from its base.
				drifted := 4 * initial.Load
				a.Observe(0, drifted)
				a.Observe(10, drifted)
				deadline := time.Now().Add(10 * time.Second)
				for a.Stats().Swaps == 0 && time.Now().Before(deadline) {
					time.Sleep(time.Millisecond)
				}
				if st := a.Stats(); st.Swaps == 0 || st.ResolveErrors != 0 {
					t.Fatalf("tenant %d: no drift re-solve: %+v", i, st)
				}
				if got := a.PolicyFor(drifted); got == initial || got.Balancing != c.balancing {
					t.Errorf("tenant %d re-solved for %v (new policy %t), want %v",
						i, got.Balancing, got != initial, c.balancing)
				}
			}
		})
	}
}

// TestTenantGoodputAtScrape routes queries for one tenant and scrapes
// /metrics without any /stats poll: every tenant's goodput gauge must be
// there, computed at scrape from the counters Gateway.Stats reads, and
// equal to Stats' figure — the served tenant's and the idle one's alike.
func TestTenantGoodputAtScrape(t *testing.T) {
	c := startSharded(t, burstPlane())
	for i := 0; i < 5; i++ {
		if r, eerr := c.Gateway.Do("gold"); eerr != nil || r.Error != "" {
			t.Fatalf("query %d not served: %+v, %v", i, r, eerr)
		}
	}
	exp := scrape(t, c.URL()+"/metrics")
	stats := c.Gateway.Stats()
	for _, name := range []string{"gold", "silver"} {
		got := metricValue(t, exp, fmt.Sprintf(`ramsis_tenant_goodput{tenant=%q}`, name))
		if want := stats.Tenants[name].Goodput; got != want {
			t.Errorf("%s goodput at scrape %v, Stats %v", name, got, want)
		}
	}
	if g := stats.Tenants["gold"].Goodput; g != 1 {
		t.Errorf("gold goodput %v after 5 in-SLO queries, want 1", g)
	}
}
