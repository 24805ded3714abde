// Command serve runs the client-server prototype end to end on localhost:
// it starts worker HTTP servers and the frontend, generates a RAMSIS policy,
// replays a Poisson workload through the frontend's dispatch loop (the same
// loop -frontend serves live traffic with), and reports the achieved accuracy
// and violation rate.
//
//	serve --task image --slo 150 --workers 4 --load 120 --dur 10
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"sync"
	"time"

	"ramsis/internal/adapt"
	"ramsis/internal/admit"
	"ramsis/internal/core"
	"ramsis/internal/dist"
	"ramsis/internal/lb"
	"ramsis/internal/llm"
	"ramsis/internal/monitor"
	"ramsis/internal/profile"
	"ramsis/internal/serve"
	"ramsis/internal/sim"
	"ramsis/internal/stats"
	"ramsis/internal/telemetry"
	"ramsis/internal/tenant"
	"ramsis/internal/trace"
)

// shardedOpts carries the single-tenant flags the sharded plane reuses.
type shardedOpts struct {
	workers      int
	timeScale    float64
	noiseMS      float64
	seed         int64
	d            int
	maxQueue     int
	lb           string
	addr         string
	degradeDepth int
	adaptive     bool
	traceOut     string
}

// runSharded starts the multi-tenant sharded serving plane from a tenant
// contract file and serves until interrupted. Every single-tenant flag
// keeps its meaning; -workers counts per shard.
func runSharded(models profile.Set, file string, shards int, shardBy string, o shardedOpts) {
	data, err := os.ReadFile(file)
	if err != nil {
		log.Fatal(err)
	}
	tenants, err := tenant.Parse(data)
	if err != nil {
		log.Fatal(err)
	}
	var tw *telemetry.TraceWriter
	if o.traceOut != "" {
		fh, err := os.OpenFile(o.traceOut, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			log.Fatal(err)
		}
		defer fh.Close()
		// One writer plane-wide: gateway, shard, and worker fragments land
		// in the same JSONL stream, so the file stitches without a merge.
		tw = telemetry.NewTraceWriter(fh)
	}
	fmt.Printf("solving %d per-tenant policies (%d shards x %d workers, %s sharding)...\n",
		len(tenants), shards, o.workers, shardBy)
	cluster, err := serve.StartShardedCluster(serve.ShardedConfig{
		Models:          models,
		Tenants:         tenants,
		TenantFile:      file,
		Shards:          shards,
		WorkersPerShard: o.workers,
		TimeScale:       o.timeScale,
		LatencyStdDev:   o.noiseMS / 1000,
		Seed:            o.seed,
		D:               o.d,
		MaxQueue:        o.maxQueue,
		ShardBy:         shardBy,
		LB:              o.lb,
		Addr:            o.addr,
		DegradeDepth:    o.degradeDepth,
		Adaptive:        o.adaptive,
		TraceWriter:     tw,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Stop()
	fmt.Printf("multi-tenant gateway at %s (%d tenants)\n", cluster.URL(), len(tenants))
	for _, t := range tenants {
		fmt.Printf("  tenant %-12s class %-12s SLO %6.0f ms, weight %.1f, contracted %.0f QPS\n",
			t.Name, t.Class, t.SLOMS, t.Weight, t.RateQPS)
	}
	fmt.Printf("try: curl -X POST %s/query -H 'X-Tenant: %s' -d '{}'\n", cluster.URL(), tenants[0].Name)
	fmt.Printf("     curl %s/stats\n", cluster.URL())
	fmt.Printf("     curl %s/metrics\n", cluster.URL())
	fmt.Printf("     curl -X POST %s/reload   # after editing %s\n", cluster.URL(), file)
	select {} // serve until interrupted
}

// llmOpts carries the flag subset the LLM serving path consumes.
type llmOpts struct {
	profilePath string
	class       string
	kvCap       int
	bucket      int
	slo         float64
	workers     int
	load        float64
	dur         float64
	timeScale   float64
	seed        int64
	solver      core.Solver
	traceOut    string
}

// runLLMServe starts continuous-batching LLM workers, generates the
// token-stream policy, and replays a token-annotated Poisson workload
// through them over real HTTP. TTFT is measured twice: by the worker in
// modeled time and by the client off the first streamed byte, so the
// summary separates the model's prediction from the wire reality.
func runLLMServe(o llmOpts) {
	models := llm.BuiltinSet()
	if o.profilePath != "" {
		var err error
		if models, err = llm.LoadSetFile(o.profilePath); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("loaded %d step models from %s\n", models.Len(), o.profilePath)
	}
	class, err := llm.ClassByName(o.class)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("generating token-stream policy (%s, %s class, SLO %.0f ms, %d workers, %.0f QPS)...\n",
		models.Task, class.Name, o.slo*1000, o.workers, o.load)
	pol, err := core.GenerateLLM(core.LLMConfig{
		Models: models, SLO: o.slo, Workers: o.workers, Rate: o.load,
		In: class.In, Out: class.Out, KVCap: o.kvCap, TokenBucket: o.bucket,
		Solver: o.solver,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("policy: %d states, %d transitions, %d iterations (build %s, solve %s)\n",
		pol.States, pol.Transitions, pol.Iterations,
		pol.BuildTime.Round(time.Millisecond), pol.SolveTime.Round(time.Millisecond))
	sel, err := sim.NewLLMPolicySelector(pol, models)
	if err != nil {
		log.Fatal(err)
	}

	var tw *telemetry.TraceWriter
	if o.traceOut != "" {
		fh, err := os.OpenFile(o.traceOut, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			log.Fatal(err)
		}
		defer fh.Close()
		tw = telemetry.NewTraceWriter(fh)
	}

	// One registry across workers: counters and histograms merge, the KV
	// gauge stays per-worker via its index label.
	registry := telemetry.NewRegistry()
	urls := make([]string, o.workers)
	for i := range urls {
		w := serve.NewLLMWorker(models, o.slo, o.timeScale, sel)
		w.KVCap = o.kvCap
		w.Telemetry = registry
		w.Name = fmt.Sprintf("llm-worker-%d", i)
		w.Index = i
		w.TraceWriter = tw
		if err := w.Start(); err != nil {
			log.Fatal(err)
		}
		defer w.Stop()
		urls[i] = w.URL()
		fmt.Printf("worker %d listening at %s\n", i, urls[i])
	}

	events := trace.TokenArrivals(trace.Constant(o.load, o.dur), o.seed, class.In, class.Out)
	fmt.Printf("replaying %d token-annotated queries over %.0fs (wall %.0fs)...\n",
		len(events), o.dur, o.dur/o.timeScale)

	// Client-side join-shortest-token-queue routing: the replay tracks each
	// worker's outstanding token load like the engine's balancer does.
	outTok := make([]int, o.workers)
	var mu sync.Mutex
	type reply struct {
		res serve.GenResult
		err error
	}
	replies := make([]reply, len(events))
	var wg sync.WaitGroup
	client := &http.Client{}
	start := time.Now()
	for i, ev := range events {
		time.Sleep(time.Until(start.Add(time.Duration(ev.T / o.timeScale * float64(time.Second)))))
		need := ev.Prefill + ev.Decode
		mu.Lock()
		wi := 0
		for j := 1; j < o.workers; j++ {
			if outTok[j] < outTok[wi] {
				wi = j
			}
		}
		outTok[wi] += need
		mu.Unlock()
		wg.Add(1)
		go func(i, wi, need int, ev trace.TokenEvent) {
			defer wg.Done()
			res, err := serve.PostGenerate(client, urls[wi], ev.Prefill, ev.Decode)
			mu.Lock()
			outTok[wi] -= need
			mu.Unlock()
			replies[i] = reply{res: res, err: err}
		}(i, wi, need, ev)
	}
	wg.Wait()

	acc := map[string]float64{}
	for _, m := range models.Models {
		acc[m.Name] = m.Accuracy
	}
	var served, failed, violations int
	var satAcc float64
	var lats, ttfts, wireTTFTs, tbts []float64
	counts := map[string]int{}
	for _, r := range replies {
		if r.err != nil {
			failed++
			continue
		}
		served++
		s := r.res.Summary
		lats = append(lats, s.Latency)
		ttfts = append(ttfts, s.TTFT)
		wireTTFTs = append(wireTTFTs, r.res.TTFTWall*o.timeScale)
		if s.Decode > 1 {
			tbts = append(tbts, (s.Latency-s.TTFT)/float64(s.Decode-1))
		}
		counts[s.Model]++
		if s.Latency > o.slo {
			violations++
		} else {
			satAcc += acc[s.Model]
		}
	}
	if served == 0 {
		log.Fatal("no queries served")
	}
	pct := func(xs []float64, p float64) float64 {
		if len(xs) == 0 {
			return 0
		}
		return stats.Percentile(xs, p) * 1000
	}
	fmt.Printf("served / failed:             %d / %d\n", served, failed)
	fmt.Printf("accuracy/satisfied query:    %.4f\n", satAcc/float64(max(served-violations, 1)))
	fmt.Printf("latency SLO violation rate:  %.4f%%\n", float64(violations)/float64(served)*100)
	fmt.Printf("latency p50/p95/p99 (ms):    %.1f / %.1f / %.1f\n", pct(lats, 50), pct(lats, 95), pct(lats, 99))
	fmt.Printf("TTFT p50/p95/p99 (ms):       %.1f / %.1f / %.1f\n", pct(ttfts, 50), pct(ttfts, 95), pct(ttfts, 99))
	fmt.Printf("wire TTFT p50/p95/p99 (ms):  %.1f / %.1f / %.1f (client first-byte, incl. HTTP)\n",
		pct(wireTTFTs, 50), pct(wireTTFTs, 95), pct(wireTTFTs, 99))
	fmt.Printf("mean TBT p50/p95/p99 (ms):   %.1f / %.1f / %.1f\n", pct(tbts, 50), pct(tbts, 95), pct(tbts, 99))
	fmt.Println("model usage (queries):")
	for name, c := range counts {
		fmt.Printf("  %-22s %d\n", name, c)
	}
	fmt.Printf("policy expectation:          accuracy %.4f, violation %.4f%%\n",
		pol.ExpectedAccuracy, pol.ExpectedViolation*100)
	fmt.Println("script complete!")
}

func main() {
	var (
		workload  = flag.String("workload", "scalar", "workload kind: scalar (profile-table batches) or llm (token streams through continuous-batching workers)")
		task      = flag.String("task", "image", "inference task: image or text")
		sloMS     = flag.Float64("slo", 150, "latency SLO in milliseconds")
		workers   = flag.Int("workers", 4, "number of worker servers")
		load      = flag.Float64("load", 120, "query load in QPS")
		dur       = flag.Float64("dur", 10, "trace duration in modeled seconds")
		timeScale = flag.Float64("timescale", 1, "modeled-to-wall time compression factor")
		noiseMS   = flag.Float64("noise", 10, "inference latency stddev in ms")
		d         = flag.Int("d", 100, "FLD resolution")
		seed      = flag.Int64("seed", 1, "workload seed")
		frontend  = flag.Bool("frontend", false, "serve a live POST /query API instead of replaying a trace (Ctrl-C to stop)")
		lbArg     = flag.String("lb", "rr", "load balancer across worker queues: rr, jsq, or p2c")
		addr      = flag.String("addr", "127.0.0.1:8080", "frontend listen address (frontend mode)")
		traceOut  = flag.String("trace-out", "", "append query trace fragments as JSONL to this file (frontend, replay, and multi-tenant modes; stitch with `trace -stitch`)")
		logLevel  = flag.String("log-level", "info", "log level: debug, info, warn, error")
		logFmt    = flag.String("log-format", "text", "log format: text or json")

		adaptive    = flag.Bool("adapt", false, "close the adaptation loop: drift-detect the monitored rate, re-solve in the background, hot-swap policies without pausing dispatch")
		adaptBand   = flag.Float64("adapt-band", 0.2, "adaptation hysteresis half-width as a fraction of the solved-for rate")
		adaptDwell  = flag.Float64("adapt-dwell", 2, "seconds the rate must stay outside the band before re-solving")
		adaptBucket = flag.Float64("adapt-bucket", 0, "rate bucket size in QPS for re-solves and the policy cache (0 = hysteresis band width at the initial rate)")

		tenantsFile = flag.String("tenants", "", "multi-tenant mode: tenant contract JSON (name, class, sloMs, weight, rateQps); starts the sharded serving plane with per-tenant policies, weighted-fair admission, and a tenant-routing gateway")
		shards      = flag.Int("shards", 1, "frontend shard count (multi-tenant mode); -workers is per shard")
		shardBy     = flag.String("shard-by", "hash", "shard routing policy: hash/rendezvous (pin tenant to shard) or p2c (spread by queue depth)")

		maxQueue   = flag.Int("maxqueue", 0, "queue-length bound N_w (0 = default 32): caps the RAMSIS MDP state space, and with -admit cap also sets the online admission bound (workers x N_w outstanding) — one knob for both, since policy guarantees lapse past N_w anyway")
		solverArg  = flag.String("solver", "vi", "RAMSIS MDP solver: vi (value iteration, the paper's default), pi (policy iteration), or prioritized (fast-resolve: residual-ordered Gauss-Seidel sweeps; same policy, far fewer sweeps — adaptive background re-solves use it regardless)")
		aggQueue   = flag.Int("agg-queue", 0, "queue-axis aggregation factor (>1): warm-start each solve from a queue-coarsened aggregate of the MDP; the policy is unchanged, only the solve converges faster — pair with a large -maxqueue")
		llmProfile = flag.String("llm-profile", "", "LLM workload: load a kinded step-model JSON (llm.SaveFile) instead of the built-in chat corpus")
		llmClass   = flag.String("llm-class", "general", "LLM workload class: general, codegen, or reasoning")
		llmKVCap   = flag.Int("llm-kv-cap", 0, "override every step model's KV-cache capacity in tokens (0 = profile values)")
		llmBucket  = flag.Int("llm-bucket", 0, "token-bucket width of the LLM policy state space (0 = default 512)")

		admitName    = flag.String("admit", "none", "admission control: none, deadline (429 queries whose deadline is unmeetable), or cap (bound outstanding work; unifies the -maxqueue N_w bound online)")
		admitMargin  = flag.Float64("admit-margin", 1, "deadline admission: shed when estimated wait exceeds SLO*margin minus best-case service time")
		admitDegrade = flag.Int("admit-degrade", 0, "degraded-mode depth: maximum number of slowest models to forbid under confirmed overload (0 = off; requires -admit)")
		retryRate    = flag.Float64("retry-budget", 0, "failover retry budget in retries per modeled second (0 = unlimited, the historical behaviour)")
	)
	flag.Parse()
	if _, err := telemetry.SetupLogging(*logLevel, *logFmt, "serve"); err != nil {
		log.Fatal(err)
	}

	if *workload == "llm" {
		solver, err := core.ParseSolver(*solverArg)
		if err != nil {
			log.Fatal(err)
		}
		runLLMServe(llmOpts{
			profilePath: *llmProfile, class: *llmClass, kvCap: *llmKVCap, bucket: *llmBucket,
			slo: *sloMS / 1000, workers: *workers, load: *load, dur: *dur,
			timeScale: *timeScale, seed: *seed, solver: solver, traceOut: *traceOut,
		})
		return
	} else if *workload != "scalar" {
		log.Fatalf("unknown workload %q (want scalar or llm)", *workload)
	}
	models, err := profile.SetForTask(*task)
	if err != nil {
		log.Fatal(err)
	}
	if *tenantsFile != "" {
		runSharded(models, *tenantsFile, *shards, *shardBy, shardedOpts{
			workers: *workers, timeScale: *timeScale, noiseMS: *noiseMS,
			seed: *seed, d: *d, maxQueue: *maxQueue, lb: *lbArg, addr: *addr,
			degradeDepth: *admitDegrade, adaptive: *adaptive, traceOut: *traceOut,
		})
		return
	}
	slo := *sloMS / 1000
	balancing, err := core.ParseBalancing(*lbArg)
	if err != nil {
		log.Fatal(err)
	}
	balancer, err := lb.New(*lbArg, *seed)
	if err != nil {
		log.Fatal(err)
	}
	solver, err := core.ParseSolver(*solverArg)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("generating RAMSIS policy (%s, SLO %.0f ms, %d workers, %.0f QPS, %s balancing)...\n",
		*task, *sloMS, *workers, *load, balancing)
	base := core.Config{
		Models: models, SLO: slo, Workers: *workers, Arrival: dist.NewPoisson(1), D: *d,
		MaxQueue: *maxQueue, Balancing: balancing,
		Solver: solver, AggQueue: *aggQueue,
	}
	set := core.NewPolicySet(base, nil)
	if err := set.GenerateLoads([]float64{*load}); err != nil {
		log.Fatal(err)
	}

	var admitter admit.Admitter
	var degrader *admit.Degrader
	if *admitName != "none" {
		nw := *maxQueue
		if nw <= 0 {
			nw = 32 // core.Config.MaxQueue default
		}
		admitter, err = admit.New(*admitName, slo, *admitMargin, nw**workers, core.NewWaitEstimator(models, *workers))
		if err != nil {
			log.Fatal(err)
		}
		if *admitDegrade > 0 {
			degrader = admit.NewDegrader(admit.DegradeConfig{MaxLevel: *admitDegrade, EnterWait: slo})
		}
		fmt.Printf("admission control: %s (margin %.2f, degrade depth %d)\n",
			admitter.Name(), *admitMargin, *admitDegrade)
	} else if *admitDegrade > 0 {
		log.Fatal("-admit-degrade requires an admitter (-admit deadline or -admit cap)")
	}
	var retryBudget *admit.RetryBudget
	if *retryRate > 0 {
		retryBudget = admit.NewRetryBudget(*workers, *retryRate)
	}

	// All serve paths share one registry so /metrics (frontend mode) and the
	// adapter's ramsis_adapt_* series land in the same exposition.
	registry := telemetry.NewRegistry()
	selector := serve.RAMSISSelector(set)
	var adapter *adapt.Adapter
	if *adaptive {
		adapter, err = adapt.New(adapt.Config{
			Base:       base,
			Band:       *adaptBand,
			Dwell:      *adaptDwell,
			BucketSize: *adaptBucket,
			Background: true, // never stall dispatch behind a re-solve
			Telemetry:  registry,
		}, set.Policies()[0])
		if err != nil {
			log.Fatal(err)
		}
		selector = serve.AdaptiveSelector(adapter)
		fmt.Printf("adaptation on: band ±%.0f%%, dwell %.1fs, bucket %.0f QPS\n",
			*adaptBand*100, *adaptDwell, adapter.ActiveBucket())
	}

	var tw *telemetry.TraceWriter
	if *traceOut != "" {
		fh, err := os.OpenFile(*traceOut, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			log.Fatal(err)
		}
		defer fh.Close()
		tw = telemetry.NewTraceWriter(fh)
	}
	// Live and replay modes run the same deployment — workers plus the
	// frontend's dispatch loop; they differ only in who enqueues. A replay
	// is self-contained, so its frontend takes a random port rather than
	// contending for -addr.
	listen := ""
	if *frontend {
		listen = *addr
	}
	cluster, err := serve.StartCluster(serve.ClusterConfig{
		Models:        models,
		Workers:       *workers,
		SLO:           slo,
		TimeScale:     *timeScale,
		LatencyStdDev: *noiseMS / 1000,
		Select:        selector,
		Monitor:       monitor.NewMovingAverage(0.5),
		Seed:          *seed,
		Balancer:      balancer,
		Addr:          listen,
		TraceWriter:   tw,
		Telemetry:     registry,
		Admit:         admitter,
		Degrade:       degrader,
		RetryBudget:   retryBudget,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Stop()

	if *frontend {
		fmt.Printf("live inference service at %s\n", cluster.URL())
		fmt.Printf("try: curl -X POST %s/query -d '{}'\n", cluster.URL())
		fmt.Printf("     curl %s/stats\n", cluster.URL())
		fmt.Printf("     curl %s/metrics\n", cluster.URL())
		fmt.Printf("     curl %s/debug/traces\n", cluster.URL())
		select {} // serve until interrupted
	}

	fmt.Printf("%d workers behind the frontend at %s\n", *workers, cluster.URL())
	tr := trace.Constant(*load, *dur)
	arrivals := trace.PoissonArrivals(tr, *seed)
	fmt.Printf("replaying %d queries over %.0fs (wall %.0fs)...\n",
		len(arrivals), *dur, *dur / *timeScale)
	m, err := cluster.Frontend.Replay(arrivals)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("served:                      %d\n", m.Served)
	if admitter != nil {
		fmt.Printf("offered / shed:              %d / %d (shed rate %.4f%%)\n",
			m.Offered(), m.Shed, m.ShedRate()*100)
		fmt.Printf("goodput (in-SLO/offered):    %.4f%%\n", m.GoodputRate()*100)
	}
	if degrader != nil {
		st := degrader.Stats()
		fmt.Printf("degraded mode: final level %d, %d escalations, %d de-escalations, %d clamped decisions\n",
			st.Level, st.Escalations, st.Deescalations, m.DegradedDecisions)
	}
	fmt.Printf("accuracy/satisfied query:    %.4f\n", m.AccuracyPerSatisfiedQuery())
	fmt.Printf("latency SLO violation rate:  %.4f%%\n", m.ViolationRate()*100)
	fmt.Printf("latency p50/p95/p99 (ms):    %.1f / %.1f / %.1f\n",
		m.LatencyP50*1000, m.LatencyP95*1000, m.LatencyP99*1000)
	pol := set.Policies()[0]
	fmt.Printf("policy expectation:          accuracy %.4f, violation %.4f%%\n",
		pol.ExpectedAccuracy, pol.ExpectedViolation*100)
	if adapter != nil {
		s := adapter.Stats()
		fmt.Printf("adaptation: %d re-solves (%d failed), %d cache hits / %d misses, %d hot-swaps, final bucket %.0f QPS\n",
			s.Resolves, s.ResolveErrors, s.CacheHits, s.CacheMisses, s.Swaps, s.ActiveBucket)
	}
	fmt.Println("script complete!")
}
