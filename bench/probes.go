package bench

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"time"

	"ramsis/internal/adapt"
	"ramsis/internal/admit"
	"ramsis/internal/core"
	"ramsis/internal/lb"
	"ramsis/internal/llm"
	"ramsis/internal/mdp"
	"ramsis/internal/monitor"
	"ramsis/internal/profile"
	"ramsis/internal/serve"
	"ramsis/internal/sim"
	"ramsis/internal/telemetry"
	"ramsis/internal/tenant"
	"ramsis/internal/trace"
)

// perLayer declares every per-layer metric, its unit and its direction.
// Names are <module>.<metric>. README.md lists, per metric, how it is
// measured and which end-to-end pair it should move.
//
// Most are probes: one layer called in isolation on fixed inputs, the same
// on every workload. The ones marked "pass" are read at the boundary of the
// workload's own traced pass and are 0 on workloads that never enter the
// layer.
var perLayer = []MetricSpec{
	// core: offline generation at the drift_resolve base point (3000 QPS).
	{Name: "core.build_ms", Unit: "ms", Better: "lower"},
	{Name: "core.generate_ms", Unit: "ms", Better: "lower"},
	{Name: "core.generate_unaccounted_pct", Unit: "%", Better: "lower"},
	{Name: "core.states", Unit: "count", Better: "lower"},
	{Name: "core.transitions", Unit: "count", Better: "lower"},
	{Name: "core.select_ns", Unit: "ns", Better: "lower"},
	{Name: "core.policyset_lookup_ns", Unit: "ns", Better: "lower"},
	{Name: "core.llm_generate_ms", Unit: "ms", Better: "lower"},
	{Name: "core.llm_states", Unit: "count", Better: "lower"},
	{Name: "core.llm_transitions", Unit: "count", Better: "lower"},
	{Name: "core.llm_select_ns", Unit: "ns", Better: "lower"},
	// mdp: the same MDP's compile and solves; warm is drift_resolve's first
	// re-solve (4200 QPS seeded from the 3000-QPS values).
	{Name: "mdp.compile_ms", Unit: "ms", Better: "lower"},
	{Name: "mdp.solve_cold_ms", Unit: "ms", Better: "lower"},
	{Name: "mdp.solve_cold_iters", Unit: "count", Better: "lower"},
	{Name: "mdp.solve_warm_ms", Unit: "ms", Better: "lower"},
	{Name: "mdp.solve_warm_iters", Unit: "count", Better: "lower"},
	{Name: "mdp.stationary_ms", Unit: "ms", Better: "lower"},
	// adapt: Observe driven directly; counts from the pass.
	{Name: "adapt.observe_ns", Unit: "ns", Better: "lower"},
	{Name: "adapt.resolve_ms", Unit: "ms", Better: "lower"},
	{Name: "adapt.cache_hit_us", Unit: "us", Better: "lower"},
	{Name: "adapt.resolves", Unit: "count", Better: "lower"},     // pass
	{Name: "adapt.cache_hits", Unit: "count", Better: "higher"},  // pass
	{Name: "adapt.warm_starts", Unit: "count", Better: "higher"}, // pass
	{Name: "adapt.swaps", Unit: "count", Better: "lower"},        // pass
	// sim: both virtual-time engines without a policy.
	{Name: "sim.engine_ns_per_query", Unit: "ns", Better: "lower"},
	{Name: "sim.decisions", Unit: "count", Better: "lower"},   // pass
	{Name: "sim.latency_p99_ms", Unit: "ms", Better: "lower"}, // pass, modeled
	{Name: "sim.llm_ns_per_step", Unit: "ns", Better: "lower"},
	{Name: "sim.llm_ns_per_token", Unit: "ns", Better: "lower"},
	{Name: "sim.llm_steps", Unit: "count", Better: "lower"},
	{Name: "sim.llm_switches", Unit: "count", Better: "lower"},
	{Name: "sim.llm_peak_kv", Unit: "share", Better: "lower"},
	{Name: "sim.llm_ttft_p50_ms", Unit: "ms", Better: "lower"}, // modeled
	{Name: "sim.llm_ttft_p99_ms", Unit: "ms", Better: "lower"}, // modeled
	{Name: "sim.llm_tbt_p99_ms", Unit: "ms", Better: "lower"},  // modeled
	// lb, monitor, trace, llm.
	{Name: "lb.pick_rr_ns", Unit: "ns", Better: "lower"},
	{Name: "lb.pick_jsq_ns", Unit: "ns", Better: "lower"},
	{Name: "lb.pick_p2c_ns", Unit: "ns", Better: "lower"},
	{Name: "monitor.observe_load_ns", Unit: "ns", Better: "lower"},
	{Name: "trace.poisson_ns_per_arrival", Unit: "ns", Better: "lower"},
	{Name: "trace.token_ns_per_arrival", Unit: "ns", Better: "lower"},
	{Name: "llm.steptime_ns", Unit: "ns", Better: "lower"},
	// tenant, admit.
	{Name: "tenant.resolve_ns", Unit: "ns", Better: "lower"},
	{Name: "tenant.shard_pick_ns", Unit: "ns", Better: "lower"},
	{Name: "tenant.fair_admit_ns", Unit: "ns", Better: "lower"},
	{Name: "tenant.fair_shed_ns", Unit: "ns", Better: "lower"},
	{Name: "admit.deadline_ns", Unit: "ns", Better: "lower"},
	{Name: "admit.cap_ns", Unit: "ns", Better: "lower"},
	{Name: "tenant.overload_compliant_goodput", Unit: "share", Better: "higher"},
	{Name: "tenant.overload_shed_share", Unit: "share", Better: "higher"},
	// serve: the live plane piece by piece, zero-length inference.
	{Name: "serve.frontend_us_per_query", Unit: "us", Better: "lower"},
	{Name: "serve.gateway_us_per_query", Unit: "us", Better: "lower"},
	{Name: "serve.gateway_minus_frontend_us", Unit: "us", Better: "lower"},
	{Name: "serve.infer_roundtrip_b1_us", Unit: "us", Better: "lower"},
	{Name: "serve.infer_roundtrip_b16_us", Unit: "us", Better: "lower"},
	{Name: "serve.round_p50_us", Unit: "us", Better: "lower"},
	{Name: "serve.round_p99_us", Unit: "us", Better: "lower"},
	{Name: "serve.round_samples", Unit: "count", Better: "higher"},
	{Name: "serve.batch_mean", Unit: "count", Better: "higher"}, // pass
	{Name: "serve.dispatches", Unit: "count", Better: "lower"},  // pass
	{Name: "serve.http_query_us", Unit: "us", Better: "lower"},
	{Name: "serve.tracewriter_overhead_pct", Unit: "%", Better: "lower"},
	{Name: "serve.llm_stream_us_per_token", Unit: "us", Better: "lower"},
	{Name: "serve.timescale20000_us_per_query", Unit: "us", Better: "lower"},
	// telemetry.
	{Name: "telemetry.counter_inc_ns", Unit: "ns", Better: "lower"},
	{Name: "telemetry.hist_observe_ns", Unit: "ns", Better: "lower"},
	{Name: "telemetry.trace_add_ns", Unit: "ns", Better: "lower"},
	{Name: "telemetry.slo_observe_ns", Unit: "ns", Better: "lower"},
	{Name: "telemetry.decision_add_ns", Unit: "ns", Better: "lower"},
	{Name: "telemetry.metrics_scrape_ms", Unit: "ms", Better: "lower"},
	// runtime over the traced pass; bench about the benchmark itself.
	{Name: "runtime.allocs_per_query", Unit: "count", Better: "lower"},
	{Name: "runtime.alloc_bytes_per_query", Unit: "B", Better: "lower"},
	{Name: "runtime.heap_peak_mb", Unit: "MB", Better: "lower"},
	{Name: "runtime.gc_pause_ms", Unit: "ms", Better: "lower"},
	{Name: "runtime.goroutines_after_stop", Unit: "count", Better: "lower"},
	{Name: "bench.calib_ns", Unit: "ns", Better: "lower"},
	{Name: "bench.calib_chase_ns", Unit: "ns", Better: "lower"},
	{Name: "bench.pass_iqr_pct", Unit: "%", Better: "lower"},
	{Name: "bench.trace_overhead_pct", Unit: "%", Better: "lower"},
	{Name: "bench.harness_self_pct", Unit: "%", Better: "lower"},
}

// perLayerUnits maps each declared per-layer metric to its unit.
var perLayerUnits = func() map[string]string {
	units := make(map[string]string, len(perLayer))
	for _, m := range perLayer {
		units[m.Name] = m.Unit
	}
	return units
}()

// prober runs the layer probes. Every probe is a span, so the trace output
// shows where the traced run's own time went.
type prober struct {
	rec   *recorder
	lm    *layerMetrics
	smoke bool
	rng   *rand.Rand
}

// reps is how many timed repetitions a median is taken over (after one
// discarded repetition).
func (pr *prober) reps(n int) int {
	if pr.smoke {
		return 1
	}
	return n
}

// scale shrinks a loop count for the smoke tests.
func (pr *prober) scale(n int) int {
	if pr.smoke {
		return n/50 + 1
	}
	return n
}

// medianOf times fn reps times after one discarded call and returns the
// median duration.
func (pr *prober) medianOf(name string, reps int, fn func()) time.Duration {
	if !pr.smoke {
		fn()
	}
	ds := make([]float64, pr.reps(reps))
	for i := range ds {
		ds[i] = float64(pr.rec.timed(name, fn))
	}
	return time.Duration(median(ds))
}

// perOp reports the median nanoseconds per call of fn over five loops of n
// calls.
func (pr *prober) perOp(metric string, n int, fn func(i int)) {
	n = pr.scale(n)
	d := pr.medianOf(metric, 5, func() {
		for i := 0; i < n; i++ {
			fn(i)
		}
	})
	pr.lm.set(metric, float64(d.Nanoseconds())/float64(n))
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

func (pr *prober) check(err error, what string) bool {
	if err != nil {
		pr.lm.failf("probe %s: %v", what, err)
		return false
	}
	return true
}

// calibrate times two fixed kernels that never touch the program, to tell a
// slow host from a slow program: an integer spin (ns per 1000 xorshift
// steps), which tracks the clock, and a pointer chase over 8 MB (ns per
// step), which tracks contention in the memory hierarchy. On this host the
// spin holds within 5 % while the chase — and with it every simulator and
// generator — moves by 25 % and more when other guests are busy.
func calibrate(rec *recorder, lm *layerMetrics, smoke bool) {
	const steps = 20_000_000
	var sink uint64
	reps := 5
	if smoke {
		reps = 1
	}
	spins := make([]float64, reps)
	for i := range spins {
		spins[i] = float64(rec.timed("bench.calibrate spin", func() {
			x := uint64(88172645463325252)
			for k := 0; k < steps; k++ {
				x ^= x << 13
				x ^= x >> 7
				x ^= x << 17
			}
			sink += x
		}))
	}
	lm.set("bench.calib_ns", median(spins)/(steps/1000))

	// One cycle through all slots in a seeded random order.
	const slots, hops = 1 << 21, 2_000_000
	order := rand.New(rand.NewSource(1)).Perm(slots)
	next := make([]int32, slots)
	for i, at := range order {
		next[at] = int32(order[(i+1)%slots])
	}
	chases := make([]float64, reps)
	for i := range chases {
		chases[i] = float64(rec.timed("bench.calibrate chase", func() {
			at := int32(0)
			for k := 0; k < hops; k++ {
				at = next[at]
			}
			sink += uint64(at)
		}))
	}
	lm.set("bench.calib_chase_ns", median(chases)/hops)
	if sink == 0 {
		lm.failf("calibration kernels were optimized away")
	}
}

// probeLayers runs every probe. A probe that cannot run records a problem
// and leaves its metrics at 0.
func probeLayers(rec *recorder, lm *layerMetrics, seed int64, smoke bool) {
	pr := &prober{rec: rec, lm: lm, smoke: smoke, rng: rand.New(rand.NewSource(seed))}
	id := rec.begin("probes")
	defer rec.end(id)
	pol := pr.probeGeneration()
	if pol != nil {
		pr.probeSelect(pol)
		pr.probeAdapt(pol)
	}
	pr.probeLLMGeneration()
	pr.probeSim()
	pr.probeSmallLayers()
	pr.probeTenantAdmit()
	pr.probeTelemetry()
	pr.probeServe()
}

// probeGeneration splits one core.Generate into its stages by calling each
// stage's exported entry point on the same problem, then checks the stages
// account for the whole. The stages and the whole are timed back to back in
// each repetition and the unaccounted share is the median of the
// repetitions' own differences: timed in separate blocks, a heap that was
// still growing during the first block made the parts sum to 109 % of the
// whole. It returns the generated policy.
func (pr *prober) probeGeneration() *core.Policy {
	cfg := imageConfig(driftBase, pr.smoke)
	var (
		pol  *core.Policy
		cold mdp.Result
		err  error

		build, compile, solve, stationary, generate, unaccounted []float64
	)
	for rep := 0; rep <= pr.reps(4); rep++ {
		var m *mdp.MDP
		var cm *mdp.Compiled
		b := pr.rec.timed("core.BuildWorkerMDP", func() { m, err = core.BuildWorkerMDP(cfg) })
		if !pr.check(err, "core.BuildWorkerMDP") {
			return nil
		}
		c := pr.rec.timed("mdp.Compile", func() { cm = mdp.Compile(m) })
		s := pr.rec.timed("mdp.Solve cold", func() { cold, err = cm.Solve(mdp.SolveOptions{}) })
		if !pr.check(err, "cold solve") {
			return nil
		}
		st := pr.rec.timed("mdp.StationaryDistribution", func() {
			_, err = cm.StationaryDistribution(cold.Policy, 1e-13, 0)
		})
		if !pr.check(err, "stationary distribution") {
			return nil
		}
		g := pr.rec.timed("core.Generate", func() { pol, err = core.Generate(cfg) })
		if !pr.check(err, "core.Generate") {
			return nil
		}
		if rep == 0 && !pr.smoke {
			continue // cold code and a growing heap
		}
		build, compile, solve = append(build, ms(b)), append(compile, ms(c)), append(solve, ms(s))
		stationary, generate = append(stationary, ms(st)), append(generate, ms(g))
		unaccounted = append(unaccounted, 100*float64(g-b-c-s-st)/float64(g))
	}
	pr.lm.set("core.build_ms", median(build))
	pr.lm.set("mdp.compile_ms", median(compile))
	pr.lm.set("mdp.solve_cold_ms", median(solve))
	pr.lm.set("mdp.solve_cold_iters", float64(cold.Iterations))
	pr.lm.set("mdp.stationary_ms", median(stationary))
	pr.lm.set("core.generate_ms", median(generate))
	pr.lm.set("core.states", float64(pol.States))
	pr.lm.set("core.transitions", float64(pol.Transitions))
	pr.lm.set("core.generate_unaccounted_pct", median(unaccounted))
	if u := median(unaccounted); u > 10 && !pr.smoke {
		pr.lm.failf("core.Generate spends %.1f %% outside build, compile, solve and stationary; want <= 10", u)
	}

	// The warm solve is drift_resolve's first re-solve: the 4200-QPS MDP
	// seeded with the 3000-QPS values. It must land on the Jacobi policy.
	target := imageConfig(driftStairs[1], pr.smoke)
	m2, err := core.BuildWorkerMDP(target)
	if !pr.check(err, "core.BuildWorkerMDP (drifted)") {
		return pol
	}
	cm2 := mdp.Compile(m2)
	var warm mdp.Result
	warmOpts := mdp.SolveOptions{Method: mdp.MethodPrioritized, InitialValues: pol.SolveValues()}
	warmD := pr.medianOf("mdp.Solve warm", 5, func() { warm, err = cm2.Solve(warmOpts) })
	if !pr.check(err, "warm solve") {
		return pol
	}
	pr.lm.set("mdp.solve_warm_ms", ms(warmD))
	pr.lm.set("mdp.solve_warm_iters", float64(warm.Iterations))
	jacobi, err := cm2.Solve(mdp.SolveOptions{})
	if pr.check(err, "Jacobi solve (drifted)") {
		for _, msg := range comparePolicies("warm prioritized", warm.Policy, "Jacobi", jacobi.Policy) {
			pr.lm.failf("probe warm solve: %s", msg)
		}
	}
	return pol
}

// probeSelect times the two online lookups: Policy.Select over seeded
// (queue length, slack) observations and the policy ladder's hit path.
func (pr *prober) probeSelect(pol *core.Policy) {
	const obs = 4096
	ns := make([]int, obs)
	slacks := make([]float64, obs)
	for i := range ns {
		ns[i] = 1 + pr.rng.Intn(32)
		slacks[i] = imageSLO * (pr.rng.Float64()*1.1 - 0.1)
	}
	pr.perOp("core.select_ns", 1_000_000, func(i int) { pol.Select(ns[i%obs], slacks[i%obs]) })

	// Five rungs like twitter_replay's; the rungs share one solved policy
	// because only the lookup is timed.
	set := core.NewPolicySet(imageConfig(1, pr.smoke), nil)
	for _, load := range twitterLadder {
		rung := *pol
		rung.Load = load
		set.Insert(&rung)
	}
	loads := make([]float64, obs)
	for i := range loads {
		loads[i] = twitterLadder[0] * (0.5 + 2*pr.rng.Float64())
	}
	var err error
	pr.perOp("core.policyset_lookup_ns", 1_000_000, func(i int) {
		if _, e := set.PolicyFor(loads[i%obs]); e != nil {
			err = e
		}
	})
	pr.check(err, "PolicySet.PolicyFor")
}

// probeAdapt drives an adapter directly with a rate sequence — steady at
// the base, a step up (one warm re-solve), a step back (one cache hit) —
// timing each Observe call and classifying it by what Stats says it did.
func (pr *prober) probeAdapt(pol *core.Policy) {
	cfg := adapt.Config{Base: imageConfig(driftBase, pr.smoke), Band: 0.2, Dwell: 1, BucketSize: driftBucket}
	a, err := adapt.New(cfg, pol)
	if !pr.check(err, "adapt.New") {
		return
	}
	now := 0.0
	pr.perOp("adapt.observe_ns", 500_000, func(int) {
		now += 1e-3
		a.Observe(now, driftBase)
	})
	// observeUntil feeds rate every 10 modeled ms until pick(Stats) moves,
	// and returns how long that Observe call took.
	observeUntil := func(name string, rate float64, pick func(adapt.Stats) uint64) (time.Duration, bool) {
		id := pr.rec.begin(name)
		defer pr.rec.end(id)
		before := pick(a.Stats())
		for i := 0; i < 1000; i++ {
			now += 0.01
			start := time.Now()
			a.Observe(now, rate)
			d := time.Since(start)
			if pick(a.Stats()) != before {
				return d, true
			}
		}
		pr.lm.failf("probe adapt: %s never happened at %v QPS", name, rate)
		return 0, false
	}
	if d, ok := observeUntil("adapt.Observe resolve", driftStairs[1], func(s adapt.Stats) uint64 { return s.Resolves }); ok {
		pr.lm.set("adapt.resolve_ms", ms(d))
	}
	if d, ok := observeUntil("adapt.Observe cache hit", driftBase, func(s adapt.Stats) uint64 { return s.CacheHits }); ok {
		pr.lm.set("adapt.cache_hit_us", us(d))
	}
}

func (pr *prober) probeLLMGeneration() {
	models, cls := llm.BuiltinSet(), llm.GeneralClass()
	cfg := llmConfig(models, cls, pr.smoke)
	var pol *core.LLMPolicy
	var err error
	gen := pr.medianOf("core.GenerateLLM", 3, func() { pol, err = core.GenerateLLM(cfg) })
	if !pr.check(err, "core.GenerateLLM") {
		return
	}
	pr.lm.set("core.llm_generate_ms", ms(gen))
	pr.lm.set("core.llm_states", float64(pol.States))
	pr.lm.set("core.llm_transitions", float64(pol.Transitions))
	pr.perOp("core.llm_select_ns", 1_000_000, func(i int) { pol.Select((i * 37) % cfg.MaxTokens) })

	// One general-class stream through the step loop under that policy.
	dur := 600.0
	if pr.smoke {
		dur = 30
	}
	arrivals := poissonArrivals(pr.rng, []float64{cfg.Rate}, dur)
	queries := tokenQueries(pr.rng, arrivals, cls.In, cls.Out)
	var m sim.LLMMetrics
	run := pr.medianOf("sim.LLMEngine.Run", 5, func() {
		sel, serr := sim.NewLLMPolicySelector(pol, models)
		if serr != nil {
			err = serr
			return
		}
		e := sim.NewLLMEngine(models, llmSLO, llmWorkers, sel)
		e.CollectLatencies = true
		m = e.Run(queries)
	})
	if !pr.check(err, "sim.NewLLMPolicySelector") || m.Steps == 0 {
		return
	}
	pr.lm.set("sim.llm_ns_per_step", float64(run.Nanoseconds())/float64(m.Steps))
	pr.lm.set("sim.llm_ns_per_token", float64(run.Nanoseconds())/float64(m.PrefillTokens+m.DecodeTokens))
	pr.lm.set("sim.llm_steps", float64(m.Steps))
	pr.lm.set("sim.llm_switches", float64(m.ModelSwitches))
	pr.lm.set("sim.llm_peak_kv", m.PeakKVUsage)
	pr.lm.set("sim.llm_ttft_p50_ms", m.TTFTP50*1e3)
	pr.lm.set("sim.llm_ttft_p99_ms", m.TTFTP99*1e3)
	pr.lm.set("sim.llm_tbt_p99_ms", m.TBTP99*1e3)
}

// probeSim times the scalar engine with no policy in the loop: event queue,
// worker queues and metrics only.
func (pr *prober) probeSim() {
	models := profile.ImageSet()
	arrivals := poissonArrivals(pr.rng, []float64{2000}, float64(pr.scale(100)))
	served := 0
	run := pr.medianOf("sim.Engine.Run fixed", 5, func() {
		e := sim.NewEngine(models, imageSLO, 60, sim.Deterministic{}, &sim.FixedModel{Model: 0, MaxBatch: 8}, 1)
		served = e.Run(arrivals).Served
	})
	if served != len(arrivals) {
		pr.lm.failf("probe sim: served %d of %d", served, len(arrivals))
	}
	pr.lm.set("sim.engine_ns_per_query", float64(run.Nanoseconds())/float64(len(arrivals)))
}

func (pr *prober) probeSmallLayers() {
	lens := make([]int, imageWorkers)
	for i := range lens {
		lens[i] = pr.rng.Intn(7)
	}
	for _, b := range []lb.Balancer{lb.NewRoundRobin(), lb.NewJoinShortestQueue(), lb.NewPowerOfTwoChoices(1)} {
		metric := "lb.pick_" + b.Name() + "_ns"
		bad := 0
		pr.perOp(metric, 100_000, func(int) {
			if b.Pick(lens, nil) < 0 {
				bad++
			}
		})
		if bad > 0 {
			pr.lm.failf("probe %s: %d picks found no worker", metric, bad)
		}
	}

	mon := monitor.NewMovingAverage(0.5)
	now := 0.0
	pr.perOp("monitor.observe_load_ns", 1_000_000, func(int) {
		now += 1.0 / 3000
		mon.Observe(now)
		mon.Load(now)
	})

	tr := trace.Constant(3000, float64(pr.scale(100)))
	n := 0
	d := pr.medianOf("trace.PoissonArrivals", 5, func() { n = len(trace.PoissonArrivals(tr, 1)) })
	if n > 0 {
		pr.lm.set("trace.poisson_ns_per_arrival", float64(d.Nanoseconds())/float64(n))
	}
	cls := llm.GeneralClass()
	d = pr.medianOf("trace.TokenArrivals", 5, func() { n = len(trace.TokenArrivals(tr, 1, cls.In, cls.Out)) })
	if n > 0 {
		pr.lm.set("trace.token_ns_per_arrival", float64(d.Nanoseconds())/float64(n))
	}

	model := llm.BuiltinSet().Models[0]
	var sink float64
	pr.perOp("llm.steptime_ns", 1_000_000, func(i int) {
		sink += model.StepTime(i%512, i%64, float64(i%100)/100)
	})
	if sink == 0 {
		pr.lm.failf("probe llm.StepTime: every step took no time")
	}
}

// overloadTenants is the virtual-time fairness scenario: three tenants, the
// middle one offering 4x its contract.
var overloadTenants = []tenant.Tenant{
	{Name: "interactive", SLOMS: 150, Weight: 2, RateQPS: 100},
	{Name: "standard", SLOMS: 300, Weight: 1, RateQPS: 50},
	{Name: "batch", SLOMS: 1000, Weight: 1, RateQPS: 50},
}

func (pr *prober) probeTenantAdmit() {
	reg, err := tenant.NewRegistry(planeTenants)
	if !pr.check(err, "tenant.NewRegistry") {
		return
	}
	names := []string{"gold", "silver"}
	missed := 0
	pr.perOp("tenant.resolve_ns", 1_000_000, func(i int) {
		if _, ok := reg.Resolve(names[i&1]); !ok {
			missed++
		}
	})
	if missed > 0 {
		pr.lm.failf("probe tenant.Resolve: %d misses", missed)
	}
	sharder := tenant.NewP2C(1)
	depths := []int{3, 1}
	pr.perOp("tenant.shard_pick_ns", 1_000_000, func(i int) { sharder.Pick(names[i&1], depths) })

	est := core.NewWaitEstimator(profile.ImageSet(), 1)
	inner := admit.Cap{Limit: 64, Est: est}
	// Admit path: modeled time advances a second per call, so the bucket
	// always holds a token. Shed path: time stands still and borrowing is
	// off, so once the bucket is drained every verdict is over_share.
	fair := tenant.NewFairAdmitter(reg, inner, tenant.FairConfig{})
	now, shedSeen := 0.0, 0
	pr.perOp("tenant.fair_admit_ns", 1_000_000, func(i int) {
		now++
		if !fair.Admit(names[i&1], admit.Request{Now: now}).Admit {
			shedSeen++
		}
	})
	if shedSeen > 0 {
		pr.lm.failf("probe fair admit: %d in-share arrivals shed", shedSeen)
	}
	strict := tenant.NewFairAdmitter(reg, inner, tenant.FairConfig{NoBorrow: true})
	for strict.Admit("gold", admit.Request{}).Admit {
	}
	admitted := 0
	pr.perOp("tenant.fair_shed_ns", 1_000_000, func(int) {
		if strict.Admit("gold", admit.Request{}).Admit {
			admitted++
		}
	})
	if admitted > 0 {
		pr.lm.failf("probe fair shed: %d over-share arrivals admitted", admitted)
	}
	deadline := admit.Deadline{SLO: imageSLO, Est: est}
	pr.perOp("admit.deadline_ns", 1_000_000, func(i int) { deadline.Admit(admit.Request{Outstanding: i % 8}) })
	pr.perOp("admit.cap_ns", 1_000_000, func(i int) { inner.Admit(admit.Request{Outstanding: i % 128}) })

	// Fairness under overload, in virtual time so the shares are exact.
	dur := 120.0
	if pr.smoke {
		dur = 10
	}
	oreg, err := tenant.NewRegistry(overloadTenants)
	if !pr.check(err, "tenant.NewRegistry (overload)") {
		return
	}
	var queries []sim.Query
	for _, t := range overloadTenants {
		rate := t.RateQPS
		if t.Name == "standard" {
			rate *= 4
		}
		for _, at := range poissonArrivals(pr.rng, []float64{rate}, dur) {
			queries = append(queries, sim.Query{Arrival: at, Tenant: t.Name})
		}
	}
	sort.SliceStable(queries, func(i, j int) bool { return queries[i].Arrival < queries[j].Arrival })
	for i := range queries {
		queries[i].ID = i
	}
	e := sim.NewEngine(profile.ImageSet(), 0.150, 8, sim.Deterministic{}, &sim.FixedModel{Model: 0, MaxBatch: 16}, 1)
	e.TenantSLOs = map[string]float64{}
	for _, t := range overloadTenants {
		e.TenantSLOs[t.Name] = t.SLO()
	}
	e.FairAdmit = tenant.NewFairAdmitter(oreg, nil, tenant.FairConfig{})
	var m sim.Metrics
	pr.rec.timed("sim.Engine.RunQueries overload", func() { m = e.RunQueries(queries) })
	var good, offered int
	for name, tm := range m.Tenants {
		if name != "standard" {
			good += tm.Served - tm.Violations
			offered += tm.Offered()
		}
	}
	over := m.Tenants["standard"]
	if offered == 0 || over == nil || over.Offered() == 0 {
		pr.lm.failf("probe overload: missing tenant metrics %v", m.Tenants)
		return
	}
	pr.lm.set("tenant.overload_compliant_goodput", float64(good)/float64(offered))
	pr.lm.set("tenant.overload_shed_share", float64(over.Shed)/float64(over.Offered()))
}

func (pr *prober) probeTelemetry() {
	reg := telemetry.NewRegistry()
	counter := reg.Counter("bench_probe_total")
	pr.perOp("telemetry.counter_inc_ns", 2_000_000, func(int) { counter.Inc() })
	hist := reg.Histogram("bench_probe_seconds")
	pr.perOp("telemetry.hist_observe_ns", 1_000_000, func(i int) { hist.Observe(float64(i%1000) / 1e4) })
	traces := telemetry.NewTraceBuffer(0)
	spans := []telemetry.Span{{Stage: telemetry.StageRoute, Seconds: 1e-6}}
	pr.perOp("telemetry.trace_add_ns", 1_000_000, func(i int) {
		traces.Add(telemetry.QueryTrace{ID: i, Worker: -1, TraceID: "0123456789abcdef", Process: "gateway", Tenant: "gold", Spans: spans})
	})
	slo := telemetry.NewSLOTracker(telemetry.SLOConfig{})
	now := 0.0
	pr.perOp("telemetry.slo_observe_ns", 1_000_000, func(i int) {
		now += 1e-3
		slo.Observe(now, i%100 != 0)
	})
	decisions := telemetry.NewDecisionBuffer(0)
	pr.perOp("telemetry.decision_add_ns", 1_000_000, func(i int) {
		decisions.Add(telemetry.Decision{Kind: "select", Time: float64(i), Tenant: "gold", Worker: i & 1, QueueLen: i % 32, Model: "m", Batch: 8, Outcome: "served"})
	})
}

// probeRounds is how many bursts each serve probe pass issues.
const probeRounds = 3000

// probeServe takes the live plane apart: the single-tenant frontend, the
// gateway over it, the worker wire alone, the HTTP entry, the trace
// writer's cost, the LLM stream, and the timer-floor reference.
func (pr *prober) probeServe() {
	rounds := pr.scale(probeRounds)
	tenants := make([]string, rounds*planeBurstSize) // "" is the single tenant
	acc := map[string]float64{}
	models := profile.ImageSet()

	// burstMedian runs three bursts of the sequence through route and
	// returns the median µs per query.
	burstMedian := func(name string, seq []string, route func(string) (<-chan serve.QueryResponse, *serve.EnqueueError)) float64 {
		var p pass
		d := pr.medianOf(name, 3, func() { p.burst(nil, nil, seq, acc, route) })
		if p.errored > 0 || len(p.problems) > 0 {
			pr.lm.failf("probe %s: %d errors %v", name, p.errored, p.problems)
		}
		return us(d) / float64(len(seq))
	}

	// Single-tenant frontend over two workers, fastest model always: the
	// data path without tenant resolution, shard pick or fair admission
	// (and without a policy lookup).
	fastest := models.Fastest()
	cluster, err := serve.StartCluster(serve.ClusterConfig{
		Models: models, Workers: 2, SLO: 1e9, TimeScale: planeTimeScale, Seed: 1,
		Telemetry: telemetry.NewRegistry(),
		Select: func(_, _ float64, n int, _ float64) (string, int) {
			if mb := fastest.MaxBatch(); n > mb {
				n = mb
			}
			return fastest.Name, n
		},
	})
	frontend := 0.0
	if pr.check(err, "serve.StartCluster") {
		frontend = burstMedian("serve.Frontend burst", tenants, cluster.Frontend.Enqueue)
		cluster.Stop()
		pr.lm.set("serve.frontend_us_per_query", frontend)
	}

	// The plane_burst cluster again, for the gateway's own share, round
	// latencies, the HTTP entry and a scrape of a populated registry.
	seq := make([]string, len(tenants))
	for i, k := range weightedSequence(pr.rng, len(seq), []float64{2, 1}) {
		seq[i] = planeTenants[k].Name
	}
	cfg := planeConfig()
	plane, err := serve.StartShardedCluster(cfg)
	gateway := 0.0
	if pr.check(err, "serve.StartShardedCluster") {
		gateway = burstMedian("serve.Gateway burst", seq, plane.Gateway.Route)
		pr.lm.set("serve.gateway_us_per_query", gateway)
		if frontend > 0 {
			pr.lm.set("serve.gateway_minus_frontend_us", gateway-frontend)
		}
		var p pass
		id := pr.rec.begin("serve.Gateway rounds")
		p.burst(pr.rec, nil, seq, acc, plane.Gateway.Route)
		pr.rec.end(id)
		var roundUS []float64
		for _, s := range pr.rec.spans[id+1:] {
			if s.Parent == id {
				roundUS = append(roundUS, float64(s.End-s.Start)/1e3)
			}
		}
		pr.lm.set("serve.round_p50_us", percentile(roundUS, 50))
		pr.lm.set("serve.round_p99_us", percentile(roundUS, 99))
		pr.lm.set("serve.round_samples", float64(len(roundUS)))

		pr.lm.set("serve.http_query_us", pr.serialPosts("POST /query", plane.URL()+"/query", "gold", nil))
		d := pr.medianOf("telemetry.WritePrometheus", 5, func() { cfg.Telemetry.WritePrometheus(io.Discard) })
		pr.lm.set("telemetry.metrics_scrape_ms", ms(d))
		plane.Stop()
	}

	// The same plane streaming every trace fragment to a discarding writer.
	cfg = planeConfig()
	cfg.TraceWriter = telemetry.NewTraceWriter(io.Discard)
	traced, err := serve.StartShardedCluster(cfg)
	if pr.check(err, "serve.StartShardedCluster (trace writer)") {
		withWriter := burstMedian("serve.Gateway burst traced", seq, traced.Gateway.Route)
		traced.Stop()
		if gateway > 0 {
			pr.lm.set("serve.tracewriter_overhead_pct", 100*(withWriter-gateway)/gateway)
		}
	}

	// The worker wire alone: serial POST /infer at batch 1 and 16.
	worker := serve.NewWorker(models, sim.Deterministic{}, planeTimeScale, 1)
	if pr.check(worker.Start(), "serve.Worker.Start") {
		for _, batch := range []int{1, 16} {
			body := []byte(fmt.Sprintf(`{"model":%q,"batch":%d}`, fastest.Name, batch))
			pr.lm.set(fmt.Sprintf("serve.infer_roundtrip_b%d_us", batch),
				pr.serialPosts("POST /infer", worker.URL()+"/infer", "", body))
		}
		pr.check(worker.Stop(), "serve.Worker.Stop")
	}

	// The token stream: one /generate at a time, zero-length steps.
	lmodels := llm.BuiltinSet()
	lw := serve.NewLLMWorker(lmodels, 1e9, planeTimeScale, sim.FixedSelector(lmodels.Fastest()))
	if pr.check(lw.Start(), "serve.LLMWorker.Start") {
		client := &http.Client{}
		const prefill, decode = 64, 128
		n := pr.scale(300)
		var gerr error
		tokens := 0
		d := pr.medianOf("POST /generate", 3, func() {
			tokens = 0
			for i := 0; i < n; i++ {
				res, e := serve.PostGenerate(client, lw.URL(), prefill, decode)
				if e != nil {
					gerr = e
					return
				}
				tokens += res.Tokens
			}
		})
		if pr.check(gerr, "serve.PostGenerate") && tokens > 0 {
			pr.lm.set("serve.llm_stream_us_per_token", us(d)/float64(tokens))
		}
		client.CloseIdleConnections()
		pr.check(lw.Stop(), "serve.LLMWorker.Stop")
	}

	// The timer-floor reference: the micro-benchmarks' TimeScale, where each
	// dispatch sleeps for a sub-millisecond modeled latency and the kernel
	// rounds it up. This is what BENCH_10's 9 µs per query is made of.
	slow, err := serve.StartShardedCluster(serve.ShardedConfig{
		Models: models,
		Tenants: []tenant.Tenant{
			{Name: "bench", Class: "interactive", SLOMS: 250, Weight: 1, RateQPS: 50, BurstSec: 10},
		},
		Shards: 2, WorkersPerShard: 1, TimeScale: 20000, Seed: 1, D: 10, QueueSlack: 4, ShardBy: "p2c",
		Telemetry: telemetry.NewRegistry(),
	})
	if pr.check(err, "serve.StartShardedCluster (TimeScale 20000)") {
		short := make([]string, pr.scale(300)*planeBurstSize)
		for i := range short {
			short[i] = "bench"
		}
		var p pass
		d := pr.rec.timed("serve.Gateway burst TimeScale 20000", func() { p.burst(nil, nil, short, acc, slow.Gateway.Route) })
		slow.Stop()
		// Sheds are expected here (the contract is 50 modeled QPS); the
		// figure is wall time per offered query either way.
		pr.lm.set("serve.timescale20000_us_per_query", us(d)/float64(len(short)))
	}
}

// serialPosts issues POSTs one at a time on a kept-alive connection and
// returns the median µs per round trip.
func (pr *prober) serialPosts(name, url, tenantName string, body []byte) float64 {
	client := &http.Client{}
	defer client.CloseIdleConnections()
	n := pr.scale(2000)
	each := make([]float64, 0, n)
	id := pr.rec.begin(name)
	defer pr.rec.end(id)
	for i := 0; i < n; i++ {
		req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
		if !pr.check(err, name) {
			return 0
		}
		req.Header.Set("Content-Type", "application/json")
		if tenantName != "" {
			req.Header.Set("X-Tenant", tenantName)
		}
		start := time.Now()
		resp, err := client.Do(req)
		if !pr.check(err, name) {
			return 0
		}
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		each = append(each, float64(time.Since(start).Nanoseconds())/1e3)
		if !pr.check(err, name) {
			return 0
		}
		if resp.StatusCode != http.StatusOK {
			pr.lm.failf("probe %s: status %s", name, resp.Status)
			return 0
		}
	}
	return median(each)
}
