// Command soak drives the sharded multi-tenant serving plane at six-figure
// wall QPS on localhost and verifies the PR's serving claim end to end: with
// one tenant offering 4× its contracted rate, the compliant tenants keep
// goodput at or above the floor, the overloader is shed down to its fair
// share without starving, and every per-tenant number is read back from the
// gateway's /metrics exposition (not from in-process state).
//
//	soak                        # full scale: ≥100k offered wall QPS, 4 shards
//	soak -target-qps 2000 -dur 2s   # CI smoke scale
//	soak -saturate -dur 5s          # TimeScale=1 wall-clock saturation probe
//
// Saturation mode (-saturate) answers a different question: instead of
// pacing a contracted mix under modeled-time compression, it offers queries
// through the gateway's in-process injection path as fast as the host can
// generate them at TimeScale=1 and reports the measured wall-clock QPS
// ceiling of the data plane plus the gateway-process CPU cost per query
// (getrusage delta / queries). Admission sheds what the workers cannot
// drain — the ceiling is the per-query serving overhead limit, the number
// the zero-allocation query-path work is gated on. -cpuprofile captures a
// CPU profile of the injection window for `go tool pprof -top`.
//
// Every assertion is logged as one structured line carrying the scraped
// values it was judged on; -metrics-out and -trace-out save the final
// exposition and the plane's merged trace JSONL as build artifacts.
//
// Exit status is 0 only if every assertion holds.
package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"ramsis/internal/cli"
	"ramsis/internal/core"
	"ramsis/internal/profile"
	"ramsis/internal/serve"
	"ramsis/internal/telemetry"
	"ramsis/internal/tenant"
)

// soakTenants is the contract set, in modeled QPS. The overloader carries
// most of the contracted capacity so the offered:admitted ratio stays near
// 3.5:1 — at a six-figure offered wall rate the admitted stream the workers
// must genuinely drain stays within a small host's budget, with everything
// past it shed on the cheap admission path. Bronze's borrowed backlog is
// held off the queues by the plane's borrow reserve, so gold and silver
// keep their queue slots even though bronze supplies ~95% of arrivals.
func soakTenants(sloScale float64) []tenant.Tenant {
	return []tenant.Tenant{
		// Compliant tenants get deep token buckets: a wall-clock stall at
		// a four-digit time scale compresses tens of modeled seconds of
		// arrivals into one burst, and a shallow bucket would shed traffic
		// that is within contract on average. The overloader stays on a
		// tight bucket so its excess is metered out immediately.
		{Name: "gold", Class: "interactive", SLOMS: 15000 * sloScale, Weight: 2, RateQPS: 2, BurstSec: 10},
		{Name: "silver", Class: "standard", SLOMS: 30000 * sloScale, Weight: 1, RateQPS: 1.5, BurstSec: 10},
		{Name: "bronze", Class: "batch", SLOMS: 60000 * sloScale, Weight: 0.2, RateQPS: 17.5, BurstSec: 2},
	}
}

func main() { cli.Main(run) }

func run(_ context.Context, args []string, _ io.Writer) error {
	fs := cli.NewFlagSet("soak")
	var (
		shards     = fs.Int("shards", 4, "frontend shard count")
		workers    = fs.Int("workers", 1, "workers per shard")
		targetQPS  = fs.Float64("target-qps", 105000, "offered wall QPS across all tenants (sets the time scale)")
		qpsFloor   = fs.Float64("qps-floor", 100000, "minimum achieved offered wall QPS for the soak to pass")
		floor      = fs.Float64("goodput-floor", 0.9, "minimum goodput for compliant tenants")
		overload   = fs.Float64("overload", 4, "offered-rate multiple for the overloading tenant (bronze)")
		dur        = fs.Duration("dur", 5*time.Second, "injection duration (wall clock)")
		d          = fs.Int("d", 40, "FLD resolution for the per-tenant policy solves")
		seed       = fs.Int64("seed", 1, "worker and balancer seed")
		timeScale  = fs.Float64("timescale", 0, "modeled-to-wall compression (0 = derived from -target-qps)")
		sloScale   = fs.Float64("slo-scale", 1, "scale factor on the built-in tenant SLOs")
		metricsOut = fs.String("metrics-out", "", "write the final /metrics scrape to this file (CI artifact)")
		traceOut   = fs.String("trace-out", "", "stream the plane's merged trace fragments as JSONL to this file (CI artifact; stitch with `trace -stitch`)")

		saturate = fs.Bool("saturate", false, "saturation mode: offer queries as fast as possible at TimeScale=1 and report the wall-clock QPS ceiling")
		clients  = fs.Int("clients", 0, "saturation mode: injector goroutines (default max(2, GOMAXPROCS))")
		satFloor = fs.Float64("saturate-floor", 0, "saturation mode: fail unless the measured QPS ceiling reaches this (0 = report only)")
		cpuProf  = fs.String("cpuprofile", "", "saturation mode: write a CPU profile of the injection window to this file")
	)
	logger, err := fs.Parse(args)
	if err != nil {
		return err
	}

	tenants := soakTenants(*sloScale)
	offeredModeled, totalRate := 0.0, 0.0
	for _, t := range tenants {
		totalRate += t.RateQPS
		r := t.RateQPS
		if t.Name == "bronze" {
			r *= *overload
		}
		offeredModeled += r
	}
	ts := *timeScale
	if ts <= 0 {
		ts = *targetQPS / offeredModeled
	}
	if *saturate {
		// Saturation measures the real wall-clock data plane: no modeled-time
		// compression unless explicitly overridden.
		ts = 1
		if *timeScale > 0 {
			ts = *timeScale
		}
	}

	// Restrict the zoo to models that can sustain the per-worker aggregate
	// admitted rate. The soak's modeled SLOs are necessarily lax (wall
	// scheduler jitter is multiplied by the time scale), and under a lax
	// SLO the solver has no reason to avoid a model whose full-queue wait
	// still meets the deadline — even one whose throughput the admitted
	// stream exceeds. Operators curate the zoo to the contracted load for
	// the same reason.
	perWorker := totalRate / float64(*shards*(*workers))
	models := profile.AblationImageSet()
	var keep []string
	for _, p := range models.Profiles {
		if p.Throughput() >= perWorker {
			keep = append(keep, p.Name)
		}
	}
	if len(keep) == 0 {
		return fmt.Errorf("no model sustains the per-worker rate %.2f QPS", perWorker)
	}
	models = models.Subset(keep...)

	// A CI artifact, not a log: each soak starts its trace file afresh.
	tw, closeTrace, err := cli.TraceWriter(*traceOut, true)
	if err != nil {
		return err
	}
	defer closeTrace()

	logger.Info("soak starting",
		"shards", *shards, "workersPerShard", *workers,
		"timescale", ts, "offeredModeledQps", offeredModeled,
		"offeredWallQps", offeredModeled*ts, "dur", dur.String(),
		"tenantPolicies", len(tenants))
	c, err := serve.StartShardedCluster(serve.ShardedConfig{
		Models:          models,
		Tenants:         tenants,
		Shards:          *shards,
		WorkersPerShard: *workers,
		TimeScale:       ts,
		Seed:            *seed,
		D:               *d,
		ShardBy:         "p2c", // spread each tenant's stream across shards
		// The online cap gets 6× the MDP bound in slack and almost all of
		// it is reserved against borrowing: the borrow boundary stays at
		// 16 outstanding per shard (short queues ahead of compliant
		// queries) while compliant traffic has ~176 slots to ride out
		// wall-clock stalls, which at this time scale arrive as bursts of
		// modeled arrivals.
		QueueSlack:  6,
		Fair:        tenant.FairConfig{BurstSec: 1, BorrowReserve: core.DefaultMaxQueue**workers*6 - 16},
		Telemetry:   telemetry.NewRegistry(),
		TraceWriter: tw,
	})
	if err != nil {
		return fmt.Errorf("cluster start: %w", err)
	}
	defer c.Stop()

	if *saturate {
		return runSaturate(c, tenants, logger, *dur, *clients, *satFloor, *cpuProf, *metricsOut)
	}

	// Inject in-process through Gateway.Route (the HTTP hop stays on the
	// worker dispatch path, where batching amortizes it; per-query HTTP at
	// 100k QPS would only measure the client). Batched catch-up pacing:
	// per-query sleeps cannot reach six-figure rates.
	logger.Info("injecting", "dur", dur.String())
	start := time.Now()
	var wg sync.WaitGroup
	for _, t := range tenants {
		rate := t.RateQPS * ts
		if t.Name == "bronze" {
			rate *= *overload
		}
		wg.Add(1)
		go func(name string, rate float64) {
			defer wg.Done()
			const tick = 2 * time.Millisecond
			begin := time.Now()
			sent := 0
			for {
				elapsed := time.Since(begin)
				if elapsed >= *dur {
					return
				}
				for want := int(rate * elapsed.Seconds()); sent < want; sent++ {
					_, _ = c.Gateway.Route(name)
				}
				time.Sleep(tick)
			}
		}(t.Name, rate)
	}
	wg.Wait()
	wallDur := time.Since(start).Seconds()
	time.Sleep(500 * time.Millisecond) // drain in-flight batches

	// Read every per-tenant figure back through the exposition — the soak
	// verifies what an external scraper would see, not internal state.
	series, raw, err := scrapeMetrics(c.URL() + "/metrics")
	if err != nil {
		return fmt.Errorf("metrics scrape: %w", err)
	}
	if *metricsOut != "" {
		if err := os.WriteFile(*metricsOut, raw, 0o644); err != nil {
			return fmt.Errorf("-metrics-out: %w", err)
		}
		logger.Info("final exposition saved", "path", *metricsOut, "bytes", len(raw))
	}

	failed := false
	// assert logs one structured line per soak assertion with the scraped
	// values it was judged on, and latches overall failure.
	assert := func(name string, pass bool, kv ...any) {
		kv = append([]any{"assertion", name, "pass", pass}, kv...)
		if pass {
			logger.Info("assertion", kv...)
			return
		}
		failed = true
		logger.Error("assertion FAILED", kv...)
	}

	offered := 0.0
	for _, t := range tenants {
		served := series[key(telemetry.MetricTenantQueries, t.Name)]
		violations := series[key(telemetry.MetricTenantViolations, t.Name)]
		shed := series[key(telemetry.MetricTenantShed, t.Name)]
		goodput := series[key(telemetry.MetricTenantGoodput, t.Name)]
		burn := series[sloKey(telemetry.MetricSLOBurnRate, t.Name, "60")]
		offered += served + shed
		logger.Info("tenant breakdown (scraped from /metrics)",
			"tenant", t.Name, "offered", served+shed, "served", served,
			"shed", shed, "violations", violations, "goodput", goodput,
			"burnRate60s", burn)

		switch t.Name {
		case "bronze":
			assert("overloader is shed", shed > 0, "tenant", t.Name, "shed", shed)
			assert("overloader not starved", served > 0, "tenant", t.Name, "served", served)
		default:
			assert("compliant goodput holds floor", goodput >= *floor,
				"tenant", t.Name, "goodput", goodput, "floor", *floor)
		}
	}
	achieved := offered / wallDur
	assert("offered rate holds floor", achieved >= *qpsFloor,
		"achievedWallQps", achieved, "wallDur", wallDur, "floor", *qpsFloor)

	if failed {
		return errors.New("soak FAILED")
	}
	logger.Info("soak passed", "achievedWallQps", achieved)
	return nil
}

// runSaturate is the -saturate flow: open-loop injection through the
// gateway's fire-and-forget path from a fixed pool of client goroutines for
// the configured duration, then one report of the measured wall-clock QPS
// ceiling and the process CPU burned per offered query.
func runSaturate(c *serve.ShardedCluster, tenants []tenant.Tenant, logger *slog.Logger, dur time.Duration, clients int, floor float64, cpuProfile, metricsOut string) error {
	if clients <= 0 {
		clients = runtime.GOMAXPROCS(0)
		if clients < 2 {
			clients = 2
		}
	}
	names := make([]string, len(tenants))
	for i, t := range tenants {
		names[i] = t.Name
	}

	if cpuProfile != "" {
		fh, err := os.Create(cpuProfile)
		if err != nil {
			return fmt.Errorf("-cpuprofile: %w", err)
		}
		defer fh.Close()
		if err := pprof.StartCPUProfile(fh); err != nil {
			return fmt.Errorf("-cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}

	var before syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &before)
	logger.Info("saturating", "clients", clients, "dur", dur.String())
	var total atomic.Int64
	var stop atomic.Bool
	var wg sync.WaitGroup
	start := time.Now()
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			name := names[g%len(names)]
			n := int64(0)
			for !stop.Load() {
				c.Gateway.RouteAsync(name)
				n++
			}
			total.Add(n)
		}(g)
	}
	time.Sleep(dur)
	stop.Store(true)
	wg.Wait()
	wall := time.Since(start).Seconds()
	var after syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &after)

	offered := total.Load()
	ceiling := float64(offered) / wall
	cpuSec := rusageSeconds(after) - rusageSeconds(before)
	cpuPerQuery := 0.0
	if offered > 0 {
		cpuPerQuery = cpuSec / float64(offered)
	}
	logger.Info("saturation ceiling",
		"offeredQueries", offered, "wallSec", wall,
		"wallQpsCeiling", ceiling,
		"cpuSec", cpuSec, "cpuMicrosPerQuery", cpuPerQuery*1e6,
		"clients", clients, "gomaxprocs", runtime.GOMAXPROCS(0))

	if metricsOut != "" {
		if _, raw, err := scrapeMetrics(c.URL() + "/metrics"); err == nil {
			if werr := os.WriteFile(metricsOut, raw, 0o644); werr == nil {
				logger.Info("final exposition saved", "path", metricsOut, "bytes", len(raw))
			}
		}
	}
	if floor > 0 && ceiling < floor {
		return fmt.Errorf("saturation FAILED: wall QPS ceiling %.0f below -saturate-floor %.0f", ceiling, floor)
	}
	return nil
}

// rusageSeconds sums user+system CPU time of a rusage snapshot.
func rusageSeconds(r syscall.Rusage) float64 {
	return float64(r.Utime.Sec) + float64(r.Utime.Usec)/1e6 +
		float64(r.Stime.Sec) + float64(r.Stime.Usec)/1e6
}

func key(metric, tenantName string) string {
	return metric + `{tenant="` + tenantName + `"}`
}

// sloKey is the exposition key of a ramsis_slo_* series: tenant plus the
// window label, alphabetical like the registry writes them.
func sloKey(metric, tenantName, window string) string {
	return metric + `{tenant="` + tenantName + `",window="` + window + `"}`
}

// scrapeMetrics fetches a Prometheus text exposition and returns each
// sample keyed by `name{labels}` exactly as exposed, plus the raw body for
// artifact upload. Histogram bucket lines may carry OpenMetrics-style
// exemplars (` # {trace_id="..."} v`); the suffix is stripped before the
// value parse.
func scrapeMetrics(url string) (map[string]float64, []byte, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, nil, err
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(strings.NewReader(string(raw)))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if i := strings.Index(line, " # "); i >= 0 {
			line = line[:i]
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		f, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
		if err != nil {
			continue
		}
		out[name] = f
	}
	return out, raw, sc.Err()
}
