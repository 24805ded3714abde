// Command simulate runs one MS&S method through the discrete-event
// simulator, mirroring the artifact's run_sim.py:
//
//	simulate --m RAMSIS --trace real --task image --slo 150 --workers 60
//	simulate --m JF --trace constant --load 2000 --task image --slo 150 --workers 60
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"ramsis/internal/adapt"
	"ramsis/internal/admit"
	"ramsis/internal/baselines"
	"ramsis/internal/core"
	"ramsis/internal/dist"
	"ramsis/internal/llm"
	"ramsis/internal/monitor"
	"ramsis/internal/profile"
	"ramsis/internal/sim"
	"ramsis/internal/telemetry"
	"ramsis/internal/tenant"
	"ramsis/internal/trace"
)

// parseMultipliers parses "-tenant-mult bronze=4,gold=2" into a rate
// multiplier map for tenant.ArrivalsScaled.
func parseMultipliers(s string) (map[string]float64, error) {
	if s == "" {
		return nil, nil
	}
	out := map[string]float64{}
	for _, kv := range strings.Split(s, ",") {
		name, val, ok := strings.Cut(kv, "=")
		if !ok {
			return nil, fmt.Errorf("tenant-mult: %q is not name=factor", kv)
		}
		f, err := strconv.ParseFloat(val, 64)
		if err != nil || f <= 0 {
			return nil, fmt.Errorf("tenant-mult: bad factor in %q", kv)
		}
		out[strings.TrimSpace(name)] = f
	}
	return out, nil
}

// llmSimOpts carries the flag subset the token-level simulation consumes.
type llmSimOpts struct {
	method      string
	profilePath string
	class       string
	kvCap       int
	bucket      int
	traceArg    string
	load        float64
	dur         float64
	stepLoad    float64
	stepAt      float64
	stepDur     float64
	slo         float64
	workers     int
	seed        int64
	solverArg   string
	traceOut    string
}

// runLLMSim runs one method through the token-level continuous-batching
// simulator: RAMSIS selects from the token-stream policy, Scalar from a
// queue-state policy over collapsed per-query profiles (what the scalar MDP
// would see for this workload), and Fixed pins the most accurate model.
func runLLMSim(o llmSimOpts) {
	solver, err := core.ParseSolver(o.solverArg)
	if err != nil {
		log.Fatal(err)
	}
	models := llm.BuiltinSet()
	if o.profilePath != "" {
		if models, err = llm.LoadSetFile(o.profilePath); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("loaded %d step models from %s\n", models.Len(), o.profilePath)
	}
	class, err := llm.ClassByName(o.class)
	if err != nil {
		log.Fatal(err)
	}
	var tr trace.Trace
	switch o.traceArg {
	case "constant":
		tr = trace.Constant(o.load, o.dur)
	case "real":
		tr = trace.Twitter()
	case "step":
		if o.stepLoad <= 0 {
			log.Fatal("--trace step requires --step-load")
		}
		tr = trace.Step(o.load, o.stepLoad, o.stepAt, o.stepAt+o.stepDur, o.dur)
	default:
		log.Fatalf("unknown trace %q", o.traceArg)
	}
	rate := o.load
	if o.traceArg != "constant" {
		// One policy per run: provision non-constant traces for their peak.
		rate = tr.MaxQPS()
	}

	var sel sim.ModelSelector
	var tokenPol *core.LLMPolicy
	switch o.method {
	case "RAMSIS":
		fmt.Printf("generating token-stream policy (%s class, SLO %.0f ms, %d workers, %.0f QPS)...\n",
			class.Name, o.slo*1000, o.workers, rate)
		pol, err := core.GenerateLLM(core.LLMConfig{
			Models: models, SLO: o.slo, Workers: o.workers, Rate: rate,
			In: class.In, Out: class.Out, KVCap: o.kvCap, TokenBucket: o.bucket,
			Solver: solver,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("policy: %d states, %d transitions, %d iterations (build %s, solve %s)\n",
			pol.States, pol.Transitions, pol.Iterations,
			pol.BuildTime.Round(time.Millisecond), pol.SolveTime.Round(time.Millisecond))
		tokenPol = pol
		if sel, err = sim.NewLLMPolicySelector(pol, models); err != nil {
			log.Fatal(err)
		}
	case "Scalar":
		fmt.Printf("generating scalar queue-state policy over collapsed profiles (%.0f QPS)...\n", rate)
		pol, err := core.Generate(core.Config{
			Models:  models.ScalarProfiles(class.In.MeanLen(), class.Out.MeanLen(), 0),
			SLO:     o.slo,
			Workers: o.workers,
			Arrival: dist.NewPoisson(rate),
			Solver:  solver,
		})
		if err != nil {
			log.Fatal(err)
		}
		if sel, err = sim.NewScalarPolicySelector(pol, models); err != nil {
			log.Fatal(err)
		}
	case "Fixed":
		sel = sim.FixedSelector(models.MostAccurate())
	default:
		log.Fatalf("unknown LLM method %q (want RAMSIS, Scalar, or Fixed)", o.method)
	}

	e := sim.NewLLMEngine(models, o.slo, o.workers, sel)
	e.KVCap = o.kvCap
	e.CollectLatencies = true
	if o.traceOut != "" {
		fh, err := os.OpenFile(o.traceOut, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			log.Fatal(err)
		}
		defer fh.Close()
		e.TraceWriter = telemetry.NewTraceWriter(fh)
	}
	events := trace.TokenArrivals(tr, o.seed, class.In, class.Out)
	queries := make([]sim.TokenQuery, len(events))
	for i, ev := range events {
		queries[i] = sim.TokenQuery{ID: i, Arrival: ev.T, Prefill: ev.Prefill, Decode: ev.Decode}
	}
	fmt.Printf("simulating %d token-annotated queries (%s trace, %s class, SLO %.0f ms, %d workers)...\n",
		len(queries), tr.Name, class.Name, o.slo*1000, o.workers)
	m := e.Run(queries)

	fmt.Printf("method:                      %s\n", o.method)
	fmt.Printf("served / dropped:            %d / %d\n", m.Served, m.Dropped)
	fmt.Printf("steps / model switches:      %d / %d\n", m.Steps, m.ModelSwitches)
	fmt.Printf("prefill / decode tokens:     %d / %d\n", m.PrefillTokens, m.DecodeTokens)
	fmt.Printf("peak KV usage:               %.4f\n", m.PeakKVUsage)
	fmt.Printf("accuracy/satisfied query:    %.4f\n", m.AccuracyPerSatisfiedQuery())
	fmt.Printf("latency SLO violation rate:  %.4f%%\n", m.ViolationRate()*100)
	fmt.Printf("latency p50/p95/p99 (ms):    %.1f / %.1f / %.1f\n",
		m.LatencyP50*1000, m.LatencyP95*1000, m.LatencyP99*1000)
	fmt.Printf("TTFT p50/p95/p99 (ms):       %.1f / %.1f / %.1f\n",
		m.TTFTP50*1000, m.TTFTP95*1000, m.TTFTP99*1000)
	fmt.Printf("TBT p50/p95/p99 (ms):        %.1f / %.1f / %.1f\n",
		m.TBTP50*1000, m.TBTP95*1000, m.TBTP99*1000)
	fmt.Println("model usage (queries):")
	for name, c := range m.ModelCounts {
		fmt.Printf("  %-22s %d\n", name, c)
	}
	if tokenPol != nil {
		fmt.Printf("policy expectation:          accuracy %.4f, violation %.4f%%\n",
			tokenPol.ExpectedAccuracy, tokenPol.ExpectedViolation*100)
	}
	fmt.Println("script complete!")
}

func main() {
	var (
		workload  = flag.String("workload", "scalar", "workload kind: scalar (one latency per query batch) or llm (token streams through continuous-batching workers; methods RAMSIS, Scalar, Fixed)")
		method    = flag.String("m", "RAMSIS", "MS&S method: RAMSIS, JF, MS, Greedy")
		traceArg  = flag.String("trace", "constant", "query trace: real (Twitter) or constant")
		task      = flag.String("task", "image", "inference task: image or text")
		sloMS     = flag.Float64("slo", 150, "latency SLO in milliseconds")
		workers   = flag.Int("workers", 60, "number of workers")
		load      = flag.Float64("load", 2000, "query load in QPS (constant trace)")
		dur       = flag.Float64("dur", 30, "constant-trace duration in seconds")
		seed      = flag.Int64("seed", 1, "workload seed")
		d         = flag.Int("d", 100, "FLD resolution for RAMSIS policies")
		maxQueue  = flag.Int("maxqueue", 0, "queue-length bound N_w (0 = default 32): caps the RAMSIS MDP state space, and with -admit cap also sets the online admission bound (workers x N_w outstanding) — one knob for both, since policy guarantees lapse past N_w anyway")
		solverArg = flag.String("solver", "vi", "RAMSIS MDP solver: vi (value iteration, the paper's default), pi (policy iteration), or prioritized (fast-resolve: residual-ordered Gauss-Seidel sweeps; same policy, far fewer sweeps)")
		aggQueue  = flag.Int("agg-queue", 0, "queue-axis aggregation factor (>1): warm-start each solve from a queue-coarsened aggregate of the MDP; the policy is unchanged, only the solve converges faster — pair with a large -maxqueue")
		noise     = flag.Float64("noise", 0, "inference latency stddev in ms (0 = deterministic p95)")
		polPath   = flag.String("policy", "", "load a saved RAMSIS policy JSON (from ramsisgen) instead of generating")
		msTable   = flag.String("ms-table", "", "load a ModelSwitching profile JSON (from msgen) instead of profiling")
		lbArg     = flag.String("lb", "rr", "RAMSIS per-worker load balancer: rr, jsq, or p2c (policies are generated with the matching MDP transition model)")
		traceOut  = flag.String("trace-out", "", "append per-query trace fragments (deterministic sim-<id> trace IDs, with attached select decisions) as JSONL to this file; stitch with `trace -stitch`")
		logLevel  = flag.String("log-level", "info", "log level: debug, info, warn, error")
		logFmt    = flag.String("log-format", "text", "log format: text or json")

		adaptive    = flag.Bool("adapt", false, "RAMSIS only: close the adaptation loop (drift-detect the monitored rate, re-solve and hot-swap policies mid-run)")
		adaptBand   = flag.Float64("adapt-band", 0.2, "adaptation hysteresis half-width as a fraction of the solved-for rate")
		adaptDwell  = flag.Float64("adapt-dwell", 2, "seconds the rate must stay outside the band before re-solving")
		adaptBucket = flag.Float64("adapt-bucket", 0, "rate bucket size in QPS for re-solves and the policy cache (0 = hysteresis band width at the initial rate)")
		stepLoad    = flag.Float64("step-load", 0, "step trace: QPS during the step (with --trace step)")
		stepAt      = flag.Float64("step-at", 10, "step trace: seconds into the run the step starts")
		stepDur     = flag.Float64("step-dur", 10, "step trace: step duration in seconds")

		tenantsFile = flag.String("tenants", "", "multi-tenant mode: tenant contract JSON; each tenant offers its contracted rate over -dur, violations are judged per tenant SLO, and weighted-fair admission meters tenants (wraps -admit as the inner layer)")
		tenantMult  = flag.String("tenant-mult", "", "per-tenant offered-rate multipliers, e.g. bronze=4 or bronze=4,gold=2 — the overload experiment knob (requires -tenants)")

		llmProfile = flag.String("llm-profile", "", "LLM workload: step-model profile JSON (kinded format; empty = builtin chat set)")
		llmClass   = flag.String("llm-class", "general", "LLM workload: token-length class (general, codegen, or reasoning)")
		llmKVCap   = flag.Int("llm-kv-cap", 0, "LLM workload: override every model's KV-cache capacity in tokens (0 = per-model defaults)")
		llmBucket  = flag.Int("llm-bucket", 0, "LLM workload: outstanding-token bucket width for the token-stream MDP (0 = default 512)")

		admitName    = flag.String("admit", "none", "admission control: none, deadline (shed queries whose deadline is unmeetable), or cap (bound outstanding work; unifies the -maxqueue N_w bound online)")
		admitMargin  = flag.Float64("admit-margin", 1, "deadline admission: shed when estimated wait exceeds SLO*margin minus best-case service time")
		admitDegrade = flag.Int("admit-degrade", 0, "degraded-mode depth: maximum number of slowest models to forbid under confirmed overload (0 = off; requires -admit)")
	)
	flag.Parse()
	if _, err := telemetry.SetupLogging(*logLevel, *logFmt, "simulate"); err != nil {
		log.Fatal(err)
	}

	if *workload == "llm" {
		runLLMSim(llmSimOpts{
			method: *method, profilePath: *llmProfile, class: *llmClass,
			kvCap: *llmKVCap, bucket: *llmBucket,
			traceArg: *traceArg, load: *load, dur: *dur,
			stepLoad: *stepLoad, stepAt: *stepAt, stepDur: *stepDur,
			slo: *sloMS / 1000, workers: *workers, seed: *seed,
			solverArg: *solverArg, traceOut: *traceOut,
		})
		return
	} else if *workload != "scalar" {
		log.Fatalf("unknown workload %q (want scalar or llm)", *workload)
	}

	models, err := profile.SetForTask(*task)
	if err != nil {
		log.Fatal(err)
	}
	var tenants []tenant.Tenant
	var mult map[string]float64
	if *tenantsFile != "" {
		data, err := os.ReadFile(*tenantsFile)
		if err != nil {
			log.Fatal(err)
		}
		if tenants, err = tenant.Parse(data); err != nil {
			log.Fatal(err)
		}
		if mult, err = parseMultipliers(*tenantMult); err != nil {
			log.Fatal(err)
		}
		// The method solves for the contracted aggregate: overload beyond a
		// contract is the fair admitter's problem, not the solver's. The
		// constant trace at that rate also keeps the oracle monitor honest.
		total := 0.0
		for _, t := range tenants {
			total += t.RateQPS
		}
		*traceArg = "constant"
		*load = total
	} else if *tenantMult != "" {
		log.Fatal("-tenant-mult requires -tenants")
	}
	slo := *sloMS / 1000
	balancing, err := core.ParseBalancing(*lbArg)
	if err != nil {
		log.Fatal(err)
	}
	solver, err := core.ParseSolver(*solverArg)
	if err != nil {
		log.Fatal(err)
	}

	var tr trace.Trace
	var mon monitor.Monitor
	switch *traceArg {
	case "real":
		tr = trace.Twitter()
		mon = monitor.NewMovingAverage(0.5)
	case "constant":
		tr = trace.Constant(*load, *dur)
		mon = monitor.Oracle{Trace: tr}
	case "step":
		if *stepLoad <= 0 {
			log.Fatal("--trace step requires --step-load")
		}
		tr = trace.Step(*load, *stepLoad, *stepAt, *stepAt+*stepDur, *dur)
		mon = monitor.NewMovingAverage(0.5)
	default:
		log.Fatalf("unknown trace %q", *traceArg)
	}

	if *adaptive && *method != "RAMSIS" {
		log.Fatalf("-adapt applies to the RAMSIS method, not %q", *method)
	}

	var sched sim.Scheduler
	var adapter *adapt.Adapter
	switch *method {
	case "RAMSIS":
		base := core.Config{Models: models, SLO: slo, Workers: *workers, Arrival: dist.NewPoisson(1), D: *d, MaxQueue: *maxQueue, Balancing: balancing,
			Solver: solver, AggQueue: *aggQueue}
		if *adaptive {
			// Adaptive mode: one policy solved for the starting rate; every
			// later rate is the drift detector's job.
			initLoad := tr.QPSAt(0)
			var initial *core.Policy
			if *polPath != "" {
				initial, err = core.LoadPolicy(*polPath, models)
				if err != nil {
					log.Fatal(err)
				}
				fmt.Printf("loaded initial policy %s (load %.0f QPS)\n", *polPath, initial.Load)
			} else {
				cfg := base
				cfg.Arrival = dist.NewPoisson(initLoad)
				fmt.Printf("generating initial RAMSIS policy at %.0f QPS...\n", initLoad)
				if initial, err = core.Generate(cfg); err != nil {
					log.Fatal(err)
				}
			}
			adapter, err = adapt.New(adapt.Config{
				Base:       base,
				Band:       *adaptBand,
				Dwell:      *adaptDwell,
				BucketSize: *adaptBucket,
			}, initial)
			if err != nil {
				log.Fatal(err)
			}
			r := sim.NewAdaptiveRAMSIS(adapter, mon)
			r.Balance = balancing
			r.LB = sim.BalancerFor(balancing, *seed)
			sched = r
			break
		}
		set := core.NewPolicySet(base, nil)
		if *polPath != "" {
			pol, err := core.LoadPolicy(*polPath, models)
			if err != nil {
				log.Fatal(err)
			}
			if pol.SLO != slo || pol.Workers != *workers {
				log.Fatalf("policy %s was generated for SLO %.0fms / %d workers, not %.0fms / %d",
					*polPath, pol.SLO*1000, pol.Workers, *sloMS, *workers)
			}
			if pol.Balancing != balancing {
				log.Printf("warning: policy %s assumes %s balancing but -lb requested %s; routing with %s",
					*polPath, pol.Balancing, balancing, balancing)
			}
			set.Insert(pol)
			fmt.Printf("loaded policy %s (load %.0f QPS)\n", *polPath, pol.Load)
		} else {
			var loads []float64
			if *traceArg == "constant" {
				loads = []float64{*load}
			} else {
				for l := 400.0; l <= tr.MaxQPS()*1.2+400; l += 400 {
					loads = append(loads, l)
				}
			}
			fmt.Printf("generating %d RAMSIS policies...\n", len(loads))
			if err := set.GenerateLoads(loads); err != nil {
				log.Fatal(err)
			}
		}
		r := sim.NewRAMSIS(set, mon)
		r.Balance = balancing
		r.LB = sim.BalancerFor(balancing, *seed)
		sched = r
	case "JF":
		sched = &baselines.JellyfishPlus{Profiles: models, SLO: slo, Workers: *workers, Monitor: mon}
	case "MS":
		var table *baselines.MSTable
		if *msTable != "" {
			data, err := os.ReadFile(*msTable)
			if err != nil {
				log.Fatal(err)
			}
			table = &baselines.MSTable{}
			if err := json.Unmarshal(data, table); err != nil {
				log.Fatalf("decode %s: %v", *msTable, err)
			}
			if len(table.P99) != models.Len() {
				log.Fatalf("table %s profiles %d models, task has %d", *msTable, len(table.P99), models.Len())
			}
			fmt.Printf("loaded ModelSwitching profile %s (%d load rungs)\n", *msTable, len(table.Loads))
		} else {
			var loads []float64
			for l := 400.0; l <= 4400; l += 400 {
				loads = append(loads, l)
			}
			fmt.Println("profiling ModelSwitching response latencies...")
			table = baselines.ProfileModelSwitching(models, slo, *workers, loads, 5, *seed)
		}
		sched = &baselines.ModelSwitching{Profiles: models, SLO: slo, Monitor: mon, Table: table}
	case "Greedy":
		sched = &baselines.Greedy{Profiles: models, SLO: slo}
	default:
		log.Fatalf("unknown method %q", *method)
	}

	var lat sim.LatencyModel = sim.Deterministic{}
	if *noise > 0 {
		lat = sim.Stochastic{StdDev: *noise / 1000}
	}
	e := sim.NewEngine(models, slo, *workers, lat, sched, *seed)
	if *traceOut != "" {
		fh, err := os.OpenFile(*traceOut, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			log.Fatal(err)
		}
		defer fh.Close()
		e.TraceWriter = telemetry.NewTraceWriter(fh)
		e.Decisions = telemetry.NewDecisionBuffer(0)
	}
	var degrader *admit.Degrader
	if *admitName != "none" {
		nw := *maxQueue
		if nw <= 0 {
			nw = 32 // core.Config.MaxQueue default
		}
		admitter, err := admit.New(*admitName, slo, *admitMargin, nw**workers, core.NewWaitEstimator(models, *workers))
		if err != nil {
			log.Fatal(err)
		}
		e.Admit = admitter
		if *admitDegrade > 0 {
			degrader = admit.NewDegrader(admit.DegradeConfig{MaxLevel: *admitDegrade, EnterWait: slo})
			e.Degrade = degrader
		}
		fmt.Printf("admission control: %s (margin %.2f, degrade depth %d)\n",
			admitter.Name(), *admitMargin, *admitDegrade)
	} else if *admitDegrade > 0 {
		log.Fatal("-admit-degrade requires an admitter (-admit deadline or -admit cap)")
	}
	var m sim.Metrics
	if tenants != nil {
		reg, err := tenant.NewRegistry(tenants)
		if err != nil {
			log.Fatal(err)
		}
		e.TenantSLOs = make(map[string]float64, len(tenants))
		for _, t := range tenants {
			e.TenantSLOs[t.Name] = t.SLO()
		}
		// Weighted-fair admission wraps whatever -admit configured as the
		// inner, capacity-facing layer.
		e.FairAdmit = tenant.NewFairAdmitter(reg, e.Admit, tenant.FairConfig{})
		evs := tenant.ArrivalsScaled(tenants, mult, *dur, *seed)
		queries := make([]sim.Query, len(evs))
		for i, ev := range evs {
			queries[i] = sim.Query{ID: i, Arrival: ev.T, Tenant: ev.Tenant}
		}
		fmt.Printf("simulating %d queries (%d tenants, %s, %d workers, fair admission)...\n",
			len(queries), len(tenants), *task, *workers)
		m = e.RunQueries(queries)
	} else {
		arrivals := trace.PoissonArrivals(tr, *seed)
		fmt.Printf("simulating %d queries (%s trace, %s, SLO %.0f ms, %d workers)...\n",
			len(arrivals), tr.Name, *task, *sloMS, *workers)
		m = e.Run(arrivals)
	}

	fmt.Printf("method:                      %s\n", *method)
	fmt.Printf("served:                      %d\n", m.Served)
	fmt.Printf("decisions:                   %d\n", m.Decisions)
	if e.Admit != nil || e.FairAdmit != nil {
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
	fmt.Println("model usage (queries):")
	for name, c := range m.ModelCounts {
		fmt.Printf("  %-22s %d\n", name, c)
	}
	if m.Tenants != nil {
		names := make([]string, 0, len(m.Tenants))
		for name := range m.Tenants {
			names = append(names, name)
		}
		sort.Strings(names)
		fmt.Println("per-tenant breakdown:")
		for _, name := range names {
			tm := m.Tenants[name]
			fmt.Printf("  %-12s offered %6d  served %6d  shed %5d  violations %5d  goodput %.4f\n",
				name, tm.Offered(), tm.Served, tm.Shed, tm.Violations, tm.GoodputRate())
		}
	}
	if adapter != nil {
		s := adapter.Stats()
		fmt.Printf("adaptation: %d re-solves (%d failed, %d warm-started, last %d iterations), %d cache hits / %d misses, %d hot-swaps, final bucket %.0f QPS\n",
			s.Resolves, s.ResolveErrors, s.WarmStarts, s.LastResolveIterations, s.CacheHits, s.CacheMisses, s.Swaps, s.ActiveBucket)
	}
	fmt.Println("script complete!")
}
