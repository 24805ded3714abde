// Command serve runs the client-server prototype end to end on localhost:
// it starts worker HTTP servers and the frontend, generates a RAMSIS policy,
// replays a Poisson workload through the frontend's dispatch loop (the same
// loop -frontend serves live traffic with), and reports the achieved accuracy
// and violation rate.
//
//	serve --task image --slo 150 --workers 4 --load 120 --dur 10
//
// The flags it shares with cmd/simulate, and everything derived from them,
// live in internal/cli.
package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"ramsis/internal/adapt"
	"ramsis/internal/admit"
	"ramsis/internal/cli"
	"ramsis/internal/core"
	"ramsis/internal/lb"
	"ramsis/internal/monitor"
	"ramsis/internal/sched"
	"ramsis/internal/serve"
	"ramsis/internal/sim"
	"ramsis/internal/stats"
	"ramsis/internal/telemetry"
	"ramsis/internal/trace"
)

// options is the shared flag set plus the flags only the prototype has.
type options struct {
	cli.Run
	timeScale, noise float64
	frontend         bool
	addr             string
	shards           int
	shardBy          string
	retryBudget      float64
	// tw is the -trace-out writer (nil without one). One writer plane-wide:
	// gateway, shard and worker fragments land in the same JSONL stream, so
	// the file stitches without a merge.
	tw *telemetry.TraceWriter
}

func newFlags(stdout io.Writer) (*cli.FlagSet, *options) {
	o := &options{Run: cli.Run{Out: stdout, Workers: 4, Load: 120, Dur: 10}, timeScale: 1, noise: 10}
	fs := cli.NewFlagSet("serve")
	o.Register(fs)
	fs.Var((*cli.Positive)(&o.timeScale), "timescale", "modeled-to-wall time compression factor")
	fs.Var((*cli.NonNegative)(&o.noise), "noise", "inference latency stddev in ms")
	fs.BoolVar(&o.frontend, "frontend", false, "serve a live POST /query API instead of replaying a trace (Ctrl-C to stop)")
	fs.StringVar(&o.addr, "addr", "127.0.0.1:8080", "frontend or gateway listen address (-frontend and -tenants modes)")
	fs.IntVar(&o.shards, "shards", 1, "frontend shard count (multi-tenant mode); -workers is per shard")
	fs.StringVar(&o.shardBy, "shard-by", "hash", "shard routing policy: hash/rendezvous (pin tenant to shard) or p2c (spread by queue depth)")
	fs.Var((*cli.NonNegative)(&o.retryBudget), "retry-budget", "failover retry budget in retries per modeled second (0 = unlimited, the historical behaviour)")
	return fs, o
}

func main() { cli.Main(run) }

func run(ctx context.Context, args []string, stdout io.Writer) error {
	fs, o := newFlags(stdout)
	if _, err := fs.Parse(args); err != nil {
		return err
	}
	tw, closeTrace, err := cli.TraceWriter(o.TraceOut, false)
	if err != nil {
		return err
	}
	defer closeTrace()
	o.tw = tw
	switch o.Workload {
	case "llm":
		if err := fs.Unread("-workload llm", llmUnread...); err != nil {
			return err
		}
		return o.runLLM(ctx)
	case "scalar":
	default:
		return fmt.Errorf("unknown -workload %q (want scalar or llm)", o.Workload)
	}
	base, err := o.PolicyConfig()
	if err != nil {
		return err
	}
	if o.TenantsFile != "" {
		if err := fs.Unread("-tenants", shardedUnread...); err != nil {
			return err
		}
		return o.runSharded(ctx, base)
	}
	return o.runCluster(ctx, base)
}

// llmUnread are the flags runLLM does not read: the scalar model set,
// balancing, adaptation, tenants, admission, latency noise and every
// frontend, gateway and failover knob.
var llmUnread = []string{
	"task", "d", "maxqueue", "lb",
	"adapt", "adapt-band", "adapt-dwell", "adapt-bucket",
	"tenants", "admit", "admit-margin", "admit-degrade",
	"noise", "frontend", "addr", "shards", "shard-by", "retry-budget",
}

// shardedUnread are the flags runSharded does not read: the tenant contracts
// carry each SLO and rate, the plane serves until interrupted and adapts
// with adapt's default band, dwell and bucket, its admission is
// weighted-fair, and its workload is scalar.
var shardedUnread = []string{
	"slo", "load", "dur",
	"adapt-band", "adapt-dwell", "adapt-bucket",
	"admit", "admit-margin", "retry-budget", "frontend",
	"llm-profile", "llm-class", "llm-kv-cap", "llm-bucket",
}

// runSharded starts the multi-tenant sharded serving plane from the tenant
// contract file and serves until ctx is cancelled. Every single-tenant flag
// keeps its meaning; -workers counts per shard.
func (o *options) runSharded(ctx context.Context, base core.Config) error {
	tenants, err := o.Tenants()
	if err != nil {
		return err
	}
	o.Printf("solving %d per-tenant policies (%d shards x %d workers, %s sharding, %s balancing)...\n",
		len(tenants), o.shards, o.Workers, o.shardBy, base.Balancing)
	cluster, err := serve.StartShardedCluster(serve.ShardedConfig{
		Models:          base.Models,
		Tenants:         tenants,
		TenantFile:      o.TenantsFile,
		Shards:          o.shards,
		WorkersPerShard: o.Workers,
		TimeScale:       o.timeScale,
		LatencyStdDev:   o.noise / 1000,
		Seed:            o.Seed,
		D:               o.D,
		MaxQueue:        o.MaxQueue,
		ShardBy:         o.shardBy,
		Balancing:       base.Balancing,
		Addr:            o.addr,
		DegradeDepth:    o.AdmitDegrade,
		Adaptive:        o.Adapt,
		TraceWriter:     o.tw,
	})
	if err != nil {
		return err
	}
	defer cluster.Stop()
	o.Printf("multi-tenant gateway at %s (%d tenants)\n", cluster.URL(), len(tenants))
	for _, t := range tenants {
		o.Printf("  tenant %-12s class %-12s SLO %6.0f ms, weight %.1f, contracted %.0f QPS\n",
			t.Name, t.Class, t.SLOMS, t.Weight, t.RateQPS)
	}
	o.Printf("try: curl -X POST %s/query -H 'X-Tenant: %s' -d '{}'\n", cluster.URL(), tenants[0].Name)
	o.Printf("     curl %s/stats\n", cluster.URL())
	o.Printf("     curl %s/metrics\n", cluster.URL())
	o.Printf("     curl -X POST %s/reload   # after editing %s\n", cluster.URL(), o.TenantsFile)
	<-ctx.Done() // serve until interrupted
	return nil
}

// runLLM starts continuous-batching LLM workers, generates the token-stream
// policy, and replays a token-annotated Poisson workload through them over
// real HTTP. TTFT is measured twice: by the worker in modeled time and by the
// client off the first streamed byte, so the summary separates the model's
// prediction from the wire reality. Cancelling ctx ends the replay at the
// next pacing sleep.
func (o *options) runLLM(ctx context.Context) error {
	models, class, err := o.LLM()
	if err != nil {
		return err
	}
	o.Printf("generating token-stream policy (%s, %s class, SLO %.0f ms, %d workers, %.0f QPS)...\n",
		models.Task, class.Name, o.SLOMS, o.Workers, o.Load)
	pol, sel, err := o.LLMPolicy(models, class, o.Load)
	if err != nil {
		return err
	}
	// Deferred first so it runs last: an interrupted replay returns through
	// the workers' Stops, which end the streams still in flight, and only
	// then waits for their client goroutines.
	var wg sync.WaitGroup
	defer wg.Wait()
	// One registry across workers: counters and histograms merge, the KV
	// gauge stays per-worker via its index label.
	registry := telemetry.NewRegistry()
	urls := make([]string, o.Workers)
	for i := range urls {
		w := serve.NewLLMWorker(models, o.SLO(), o.timeScale, sel)
		w.KVCap = o.LLMKVCap
		w.Telemetry = registry
		w.Name = fmt.Sprintf("llm-worker-%d", i)
		w.Index = i
		w.TraceWriter = o.tw
		if err := w.Start(); err != nil {
			return err
		}
		defer w.Stop()
		urls[i] = w.URL()
		o.Printf("worker %d listening at %s\n", i, urls[i])
	}

	events := trace.TokenArrivals(trace.Constant(o.Load, o.Dur), o.Seed, class.In, class.Out)
	o.Printf("replaying %d token-annotated queries over %.0fs (wall %.0fs)...\n",
		len(events), o.Dur, o.Dur/o.timeScale)

	// Client-side join-shortest-token-queue routing: the replay tracks each
	// worker's outstanding token load and picks with the balancer
	// sim.LLMEngine routes by default.
	jsq := lb.NewJoinShortestQueue()
	outTok := make([]int, o.Workers)
	var mu sync.Mutex
	type reply struct {
		res serve.GenResult
		err error
	}
	replies := make([]reply, len(events))
	client := &http.Client{}
	defer client.CloseIdleConnections()
	start := time.Now()
	for i, ev := range events {
		if err := serve.SleepUntil(ctx, start.Add(time.Duration(ev.T/o.timeScale*float64(time.Second)))); err != nil {
			return fmt.Errorf("replay interrupted after %d of %d queries: %w", i, len(events), err)
		}
		need := ev.Prefill + ev.Decode
		mu.Lock()
		wi := jsq.Pick(outTok, nil)
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

	// The summary is the simulator's, filled from the wire: each trailer
	// carries the worker's own SLO verdict, so nothing is re-judged here.
	var m sim.LLMMetrics
	m.ModelCounts = map[string]int{}
	failed := 0
	var lats, ttfts, wireTTFTs, tbts []float64
	for _, r := range replies {
		if r.err != nil {
			failed++
			continue
		}
		s := r.res.Summary
		m.Served++
		m.ModelCounts[s.Model]++
		if s.DeadlineMet {
			model, _ := models.ByName(s.Model)
			m.SatAccSum += model.Accuracy
		} else {
			m.Violations++
		}
		lats = append(lats, s.Latency)
		ttfts = append(ttfts, s.TTFT)
		wireTTFTs = append(wireTTFTs, r.res.TTFTWall*o.timeScale)
		if s.Decode > 1 {
			tbts = append(tbts, (s.Latency-s.TTFT)/float64(s.Decode-1))
		}
	}
	if m.Served == 0 {
		return errors.New("no queries served")
	}
	pcts := func(xs []float64) (p50, p95, p99 float64) {
		return stats.Percentile(xs, 50), stats.Percentile(xs, 95), stats.Percentile(xs, 99)
	}
	m.LatencyP50, m.LatencyP95, m.LatencyP99 = pcts(lats)
	m.TTFTP50, m.TTFTP95, m.TTFTP99 = pcts(ttfts)
	m.TBTP50, m.TBTP95, m.TBTP99 = pcts(tbts)
	o.Printf("served / failed:             %d / %d\n", m.Served, failed)
	o.PrintLLM(m, "mean TBT")
	w50, w95, w99 := pcts(wireTTFTs)
	o.Printf("wire TTFT p50/p95/p99 (ms):  %.1f / %.1f / %.1f (client first-byte, incl. HTTP)\n",
		w50*1000, w95*1000, w99*1000)
	o.PrintModelUsage(m.ModelCounts)
	o.PrintExpectation(pol.ExpectedAccuracy, pol.ExpectedViolation)
	o.Printf("script complete!\n")
	return nil
}

// runCluster generates the RAMSIS policy and starts the single-tenant
// deployment — workers plus the frontend's dispatch loop. Live (-frontend)
// and replay modes differ only in who enqueues.
func (o *options) runCluster(ctx context.Context, base core.Config) error {
	models, slo := base.Models, base.SLO
	o.Printf("generating RAMSIS policy (%s, SLO %.0f ms, %d workers, %.0f QPS, %s balancing)...\n",
		o.Task, o.SLOMS, o.Workers, o.Load, base.Balancing)
	set := core.NewPolicySet(base, nil)
	if err := set.GenerateLoads([]float64{o.Load}); err != nil {
		return err
	}
	pol := set.Policies()[0]
	admitter, degrader, err := o.Admission(models)
	if err != nil {
		return err
	}
	var retryBudget *admit.RetryBudget
	if o.retryBudget > 0 {
		retryBudget = admit.NewRetryBudget(o.Workers, o.retryBudget)
	}

	// All serve paths share one registry so /metrics (frontend mode) and the
	// adapter's ramsis_adapt_* series land in the same exposition. The
	// adapter generates in the background either way: dispatch never stalls
	// behind a generation.
	registry := telemetry.NewRegistry()
	var adapter *adapt.Adapter
	if !o.Adapt {
		adapter = adapt.NewCoverage(set, true, registry)
	} else {
		if adapter, err = o.Adapter(base, pol, true, registry); err != nil {
			return err
		}
		o.Printf("adaptation on: band ±%.0f%%, dwell %.1fs, bucket %.0f QPS\n",
			o.AdaptBand*100, o.AdaptDwell, adapter.ActiveBucket())
	}
	defer adapter.Stop()
	// A replay is self-contained, so its frontend takes a random port rather
	// than contending for -addr.
	listen := ""
	if o.frontend {
		listen = o.addr
	}
	cluster, err := serve.StartCluster(serve.ClusterConfig{
		Models:        models,
		Workers:       o.Workers,
		SLO:           slo,
		TimeScale:     o.timeScale,
		LatencyStdDev: o.noise / 1000,
		Select:        sched.AdaptiveSelector(adapter),
		Monitor:       monitor.NewMovingAverage(0.5),
		Seed:          o.Seed,
		Balancing:     base.Balancing,
		Addr:          listen,
		TraceWriter:   o.tw,
		Telemetry:     registry,
		Admit:         admitter,
		Degrade:       degrader,
		RetryBudget:   retryBudget,
	})
	if err != nil {
		return err
	}
	defer cluster.Stop()

	if o.frontend {
		o.Printf("live inference service at %s\n", cluster.URL())
		o.Printf("try: curl -X POST %s/query -d '{}'\n", cluster.URL())
		o.Printf("     curl %s/stats\n", cluster.URL())
		o.Printf("     curl %s/metrics\n", cluster.URL())
		o.Printf("     curl %s/debug/traces\n", cluster.URL())
		<-ctx.Done() // serve until interrupted
		return nil
	}

	o.Printf("%d workers behind the frontend at %s\n", o.Workers, cluster.URL())
	arrivals := trace.PoissonArrivals(trace.Constant(o.Load, o.Dur), o.Seed)
	o.Printf("replaying %d queries over %.0fs (wall %.0fs)...\n",
		len(arrivals), o.Dur, o.Dur/o.timeScale)
	m, err := cluster.Frontend.Replay(ctx, arrivals)
	if err != nil {
		return err
	}
	o.Printf("served:                      %d\n", m.Served)
	o.PrintServing(m, admitter != nil, degrader)
	o.PrintExpectation(pol.ExpectedAccuracy, pol.ExpectedViolation)
	o.PrintAdaptation(adapter)
	o.Printf("script complete!\n")
	return nil
}
