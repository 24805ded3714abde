package ramsis

// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (each regenerates the corresponding rows/series at the quick
// grid — run cmd/experiments for the default or --full paper-scale grids),
// plus micro-benchmarks of the core machinery and ablation benches for the
// design choices DESIGN.md calls out. These are developer tools — `go test
// -bench <name> -benchmem .`, `make profile PROFILE_BENCH=<name>` — and
// `make bench-smoke` runs each once so none rots; the numbers of record are
// the repository benchmark's (bench/, BENCHMARK.json).

import (
	"fmt"
	"io"
	"sync"
	"testing"
	"time"

	"ramsis/internal/core"
	"ramsis/internal/dist"
	"ramsis/internal/experiments"
	"ramsis/internal/lb"
	"ramsis/internal/llm"
	"ramsis/internal/mdp"
	"ramsis/internal/monitor"
	"ramsis/internal/profile"
	"ramsis/internal/sim"
	"ramsis/internal/trace"
)

func benchHarness() *experiments.Harness {
	return experiments.New(experiments.Options{Quick: true, Out: io.Discard, Seed: 1})
}

// --- Per-table / per-figure benches ---

func BenchmarkTable2PolicyGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		benchHarness().Table2()
	}
}

func BenchmarkFig5ProductionTrace(b *testing.B) {
	for i := 0; i < b.N; i++ {
		benchHarness().Fig5() // also regenerates Table 3
	}
}

func BenchmarkFig6ConstantLoad(b *testing.B) {
	for i := 0; i < b.N; i++ {
		benchHarness().Fig6() // also regenerates Table 4
	}
}

func BenchmarkFig7Fidelity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		benchHarness().Fig7()
	}
}

func BenchmarkFig8ModelCount(b *testing.B) {
	for i := 0; i < b.N; i++ {
		benchHarness().Fig8()
	}
}

func BenchmarkFig10Discretization(b *testing.B) {
	for i := 0; i < b.N; i++ {
		benchHarness().Fig10()
	}
}

func BenchmarkFig11Batching(b *testing.B) {
	for i := 0; i < b.N; i++ {
		benchHarness().Fig11()
	}
}

func BenchmarkFig12ModelAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		benchHarness().Fig12()
	}
}

func BenchmarkAppendixHINFaaS(b *testing.B) {
	for i := 0; i < b.N; i++ {
		benchHarness().INFaaS()
	}
}

func BenchmarkAppendixISQF(b *testing.B) {
	for i := 0; i < b.N; i++ {
		benchHarness().SQF()
	}
}

// --- Core machinery micro-benches ---

func genCfg() core.Config {
	return core.Config{
		Models:  profile.ImageSet(),
		SLO:     0.150,
		Workers: 60,
		Arrival: dist.NewPoisson(2400),
		D:       50,
	}
}

// BenchmarkPolicyGeneration measures one full offline policy generation
// (transition build + value iteration + expectations).
func BenchmarkPolicyGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := core.Generate(genCfg()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPolicySelect measures the online per-decision lookup.
func BenchmarkPolicySelect(b *testing.B) {
	pol, err := core.Generate(genCfg())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pol.Select(1+i%32, float64(i%150)/1000)
	}
}

// BenchmarkValueIteration measures the exact MDP solve in isolation on the
// built-in ImageNet-scale worker MDP (26 image models, D=50, 60 workers at
// 2,400 QPS): the compiled CSR Jacobi sweep, the only value iteration there
// is.
func BenchmarkValueIteration(b *testing.B) {
	cm, err := core.BuildWorkerMDP(genCfg())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cm.ValueIteration(mdp.SolveOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// resolveFixture holds the pre-built worker MDPs for BenchmarkResolve: the
// solved-for rate (the warm-start donor) and a drifted rate one adaptation
// step away (2400 -> 2880 QPS, a +20% drift — exactly the hysteresis band
// edge). Built once per process: the 10x space costs seconds to build, and
// the benchmark measures the re-solve, not the build.
type resolveFixture struct {
	once  sync.Once
	donor []float64     // converged values at the solved-for rate
	cm    *mdp.Compiled // drifted-rate MDP, the re-solve target
	err   error
}

var resolveFixtures = map[string]*resolveFixture{"1x": {}, "10x": {}}

func resolveSetup(b *testing.B, scale string) *resolveFixture {
	b.Helper()
	fx := resolveFixtures[scale]
	fx.once.Do(func() {
		cfg := genCfg()
		if scale == "10x" {
			cfg.MaxQueue = 320
		}
		m, err := core.BuildWorkerMDP(cfg)
		if err != nil {
			fx.err = err
			return
		}
		drift := cfg
		drift.Arrival = dist.NewPoisson(2880)
		fx.cm, err = core.BuildWorkerMDP(drift)
		if err != nil {
			fx.err = err
			return
		}
		res, err := m.Solve(mdp.SolveOptions{Method: mdp.MethodPrioritized})
		if err != nil {
			fx.err = err
			return
		}
		fx.donor = res.Values

		// The prioritized solver must land on the pinned Jacobi policy
		// before its timings mean anything.
		ref, err := fx.cm.ValueIteration(mdp.SolveOptions{})
		if err != nil {
			fx.err = err
			return
		}
		prio, err := fx.cm.Solve(mdp.SolveOptions{Method: mdp.MethodPrioritized})
		if err != nil {
			fx.err = err
			return
		}
		for s := range ref.Policy {
			if prio.Policy[s] != ref.Policy[s] {
				fx.err = fmt.Errorf("state %d: prioritized action %d, Jacobi %d", s, prio.Policy[s], ref.Policy[s])
				return
			}
		}
	})
	if fx.err != nil {
		b.Fatal(fx.err)
	}
	return fx
}

// BenchmarkResolve measures the adaptation-path re-solve: the drift detector
// confirmed a rate change and a policy for the new rate must be solved while
// dispatch runs on the stale one. Crosses solver (pinned Jacobi vs
// prioritized Gauss-Seidel) x start (cold zeros vs warm from the neighboring
// bucket's values) x state-space scale (the default 32-deep queue axis vs
// 10x). The warm prioritized rows are the drift-dwell budget: <10ms at 1x,
// and at 10x no worse than the 1x cold Jacobi row.
func BenchmarkResolve(b *testing.B) {
	for _, scale := range []string{"1x", "10x"} {
		for _, bc := range []struct {
			name string
			opts mdp.SolveOptions
			warm bool
		}{
			{"jacobi/cold", mdp.SolveOptions{}, false},
			{"jacobi/warm", mdp.SolveOptions{}, true},
			{"prioritized/cold", mdp.SolveOptions{Method: mdp.MethodPrioritized}, false},
			{"prioritized/warm", mdp.SolveOptions{Method: mdp.MethodPrioritized}, true},
		} {
			b.Run(scale+"/"+bc.name, func(b *testing.B) {
				fx := resolveSetup(b, scale)
				opts := bc.opts
				if bc.warm {
					opts.InitialValues = fx.donor
				}
				b.ReportAllocs()
				b.ResetTimer()
				var iters int
				for i := 0; i < b.N; i++ {
					res, err := fx.cm.Solve(opts)
					if err != nil {
						b.Fatal(err)
					}
					iters = res.Iterations
				}
				b.ReportMetric(float64(iters), "iterations")
			})
		}
	}
}

// BenchmarkBuildWorkerMDP measures the transition build — what an adaptive
// re-solve spends most of its time in — on the repository benchmark's problem
// (bench/: image zoo, 300 ms SLO, 80 workers, D=50) at two of its rates:
// prepare is the probability tables alone, whole the full build. At 4200 QPS
// the same problem is also built under variable batching (the wide cdf tables
// and the Binomial-tail slack rows) and with Erlang-2 arrivals (the Gamma
// tables), the incomplete-gamma kernel's other callers.
func BenchmarkBuildWorkerMDP(b *testing.B) {
	build := func(cfg core.Config) func(*testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.BuildWorkerMDP(cfg); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	for _, load := range []float64{3000, 4200} {
		cfg := core.Config{
			Models:  profile.ImageSet(),
			SLO:     0.300,
			Workers: 80,
			Arrival: dist.NewPoisson(load),
			D:       50,
		}
		b.Run(fmt.Sprintf("%.0fqps/prepare", load), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.PrepareWorkerTables(cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("%.0fqps/whole", load), build(cfg))
		if load == 4200 {
			variable, gamma := cfg, cfg
			variable.Batching = core.VariableBatching
			gamma.Arrival = dist.NewGamma(load, 2)
			b.Run(fmt.Sprintf("%.0fqps/variable", load), build(variable))
			b.Run(fmt.Sprintf("%.0fqps/gamma", load), build(gamma))
		}
	}
}

// BenchmarkGenerateLLM measures one cold token-policy generation per class
// on the repository benchmark's problem (bench/'s llmConfig: the built-in step
// models, 8 s SLO, 2 workers, 128-token buckets to 65,536) and reports how the
// wall time splits between the transition build, compile + solve, and the
// rest — the stationary pass plus the expectations, which neither stat
// counts — with the solver's sweep-equivalents: the split DESIGN.md § Solver
// performance quotes (`make profile PROFILE_BENCH=BenchmarkGenerateLLM` for
// where each piece goes).
func BenchmarkGenerateLLM(b *testing.B) {
	rates := map[string]float64{"general": 8, "codegen": 2, "reasoning": 0.5}
	for _, cls := range llm.Classes() {
		cfg := core.LLMConfig{
			Models:      llm.BuiltinSet(),
			SLO:         8.0,
			Workers:     2,
			Rate:        rates[cls.Name],
			In:          cls.In,
			Out:         cls.Out,
			TokenBucket: 128,
			MaxTokens:   65536,
		}
		b.Run(cls.Name, func(b *testing.B) {
			b.ReportAllocs()
			var build, solve, expect time.Duration
			var sweeps int
			for i := 0; i < b.N; i++ {
				start := time.Now()
				pol, err := core.GenerateLLM(cfg)
				if err != nil {
					b.Fatal(err)
				}
				build += pol.BuildTime
				solve += pol.SolveTime
				expect += time.Since(start) - pol.BuildTime - pol.SolveTime
				sweeps = pol.Iterations
			}
			perOp := func(d time.Duration) float64 { return float64(d.Microseconds()) / 1e3 / float64(b.N) }
			b.ReportMetric(perOp(build), "build-ms/op")
			b.ReportMetric(perOp(solve), "solve-ms/op")
			b.ReportMetric(perOp(expect), "expect-ms/op")
			b.ReportMetric(float64(sweeps), "sweeps")
		})
	}
}

// BenchmarkSimulatorThroughput measures raw discrete-event simulation speed
// (queries per second of simulated serving, fixed-model scheduler, central
// queue); it reports ns/query, and `make profile` is where a query's time
// goes.
func BenchmarkSimulatorThroughput(b *testing.B) {
	models := profile.ImageSet()
	// The arrival stream is input, not the work under test: generate it
	// once outside the timed loop.
	arr := trace.PoissonArrivals(trace.Constant(2000, 10), 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := sim.NewEngine(models, 0.150, 60, sim.Deterministic{}, &sim.FixedModel{Model: 0, MaxBatch: 8}, 1)
		m := e.Run(arr)
		if m.Served != len(arr) {
			b.Fatal("dropped queries")
		}
	}
	b.StopTimer() // ReportMetric allocates: keep it out of allocs/op
	b.ReportMetric(float64(len(arr)), "queries/op")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(arr)), "ns/query")
}

// BenchmarkLLMStepLoop measures the token-level simulator's step loop:
// continuous-batching admission, decode-first step composition, and KV
// accounting over a sustained general-class token stream (fixed fastest
// model, so the cost measured is the batching machinery, not selection: a
// FixedSelector's answer holds at every load, so it is asked once per
// worker). Steps are the loop's unit of work — composition and gap
// recording run once per step — so it also reports steps/op and ns/step;
// `make profile PROFILE_BENCH=BenchmarkLLMStepLoop` is where a step's time
// goes.
func BenchmarkLLMStepLoop(b *testing.B) {
	models := llm.BuiltinSet()
	runLLMStepLoop(b, models, sim.FixedSelector(models.Fastest()))
}

// BenchmarkLLMPolicyStepLoop is BenchmarkLLMStepLoop's stream under a token
// policy generated for it (bench/'s 128-token buckets to 65,536), so the
// loop asks the selector again at every boundary whose load has left the
// bucket of its last answer; it also reports consults/op.
func BenchmarkLLMPolicyStepLoop(b *testing.B) {
	models := llm.BuiltinSet()
	stepLoopPolicy.once.Do(func() {
		cls := llm.GeneralClass()
		pol, err := core.GenerateLLM(core.LLMConfig{
			Models: models, SLO: 8.0, Workers: 2, Rate: 40, In: cls.In, Out: cls.Out,
			TokenBucket: 128, MaxTokens: 65536,
		})
		if err == nil {
			stepLoopPolicy.sel, err = sim.NewLLMPolicySelector(pol, models)
		}
		stepLoopPolicy.err = err
	})
	if stepLoopPolicy.err != nil {
		b.Fatal(stepLoopPolicy.err)
	}
	runLLMStepLoop(b, models, stepLoopPolicy.sel)
}

// stepLoopPolicy is BenchmarkLLMPolicyStepLoop's selector, generated once
// per process.
var stepLoopPolicy struct {
	once sync.Once
	sel  sim.ModelSelector
	err  error
}

// runLLMStepLoop runs 10 s of a 40 QPS general-class stream through two
// token workers under sel, once per op.
func runLLMStepLoop(b *testing.B, models llm.Set, sel sim.ModelSelector) {
	cls := llm.GeneralClass()
	events := trace.TokenArrivals(trace.Constant(40, 10), 1, cls.In, cls.Out)
	queries := make([]sim.TokenQuery, len(events))
	var tokens int64
	for i, ev := range events {
		queries[i] = sim.TokenQuery{ID: i, Arrival: ev.T, Prefill: ev.Prefill, Decode: ev.Decode}
		tokens += int64(ev.Prefill + ev.Decode)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var m sim.LLMMetrics
	for i := 0; i < b.N; i++ {
		e := sim.NewLLMEngine(models, 8.0, 2, sel)
		m = e.Run(queries)
		if m.Served != len(queries) {
			b.Fatalf("served %d of %d", m.Served, len(queries))
		}
	}
	b.ReportMetric(float64(tokens), "tokens/op")
	b.ReportMetric(float64(m.Steps), "steps/op")
	b.ReportMetric(float64(m.Consults), "consults/op")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(m.Steps), "ns/step")
}

// BenchmarkBalancerPick compares the per-arrival routing cost of the three
// load-balancing strategies at a paper-scale worker count (60, Fig. 5): RR
// is an atomic increment, JSQ a full scan, P2C two RNG draws behind a
// mutex.
func BenchmarkBalancerPick(b *testing.B) {
	const workers = 60
	lens := make([]int, workers)
	for i := range lens {
		lens[i] = i % 7
	}
	healthy := make([]bool, workers)
	for i := range healthy {
		healthy[i] = true
	}
	for _, bal := range []lb.Balancer{lb.NewRoundRobin(), lb.NewJoinShortestQueue(), lb.NewPowerOfTwoChoices(1)} {
		b.Run(bal.Name(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if w := bal.Pick(lens, healthy); w < 0 {
					b.Fatal("no pick")
				}
			}
		})
	}
}

// BenchmarkRAMSISScheduler measures end-to-end simulated serving with the
// RAMSIS scheduler (round-robin over per-worker queues, policy lookup per
// decision included); it reports ns/query, and `make profile
// PROFILE_BENCH=BenchmarkRAMSISScheduler` is where a query's time goes.
func BenchmarkRAMSISScheduler(b *testing.B) {
	set := core.NewPolicySet(genCfg(), nil)
	if err := set.GenerateLoads([]float64{2400}); err != nil {
		b.Fatal(err)
	}
	models := profile.ImageSet()
	tr := trace.Constant(2400, 10)
	arr := trace.PoissonArrivals(tr, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := sim.NewEngine(models, 0.150, 60, sim.Deterministic{}, sim.NewRAMSIS(set, monitor.Oracle{Trace: tr}), 1)
		e.Run(arr)
	}
	b.StopTimer() // ReportMetric allocates: keep it out of allocs/op
	b.ReportMetric(float64(len(arr)), "queries/op")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(arr)), "ns/query")
}

// --- Ablation benches (design choices from DESIGN.md) ---

// BenchmarkAblationParetoPruning compares policy generation with and
// without the §4.3.3 action-space pruning.
func BenchmarkAblationParetoPruning(b *testing.B) {
	for _, pruned := range []bool{true, false} {
		name := "pruned"
		if !pruned {
			name = "full26"
		}
		b.Run(name, func(b *testing.B) {
			cfg := genCfg()
			cfg.NoParetoPruning = !pruned
			for i := 0; i < b.N; i++ {
				if _, err := core.Generate(cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationDiscount sweeps the value-iteration discount factor,
// which the paper leaves implicit.
func BenchmarkAblationDiscount(b *testing.B) {
	for _, gamma := range []float64{0.90, 0.99, 0.999} {
		b.Run(gammaName(gamma), func(b *testing.B) {
			cfg := genCfg()
			cfg.Gamma = gamma
			var acc float64
			for i := 0; i < b.N; i++ {
				pol, err := core.Generate(cfg)
				if err != nil {
					b.Fatal(err)
				}
				acc = pol.ExpectedAccuracy
			}
			b.ReportMetric(acc, "expAccuracy")
		})
	}
}

func gammaName(g float64) string {
	switch g {
	case 0.90:
		return "gamma0.90"
	case 0.99:
		return "gamma0.99"
	}
	return "gamma0.999"
}

// BenchmarkAblationProbFloor sweeps the sparse transition pruning threshold
// (probability mass below it folds into the overflow state).
func BenchmarkAblationProbFloor(b *testing.B) {
	for _, floor := range []float64{1e-6, 1e-10, 1e-14} {
		b.Run(floorName(floor), func(b *testing.B) {
			cfg := genCfg()
			cfg.ProbFloor = floor
			var transitions int
			for i := 0; i < b.N; i++ {
				pol, err := core.Generate(cfg)
				if err != nil {
					b.Fatal(err)
				}
				transitions = pol.Transitions
			}
			b.ReportMetric(float64(transitions), "transitions")
		})
	}
}

func floorName(f float64) string {
	switch f {
	case 1e-6:
		return "floor1e-6"
	case 1e-10:
		return "floor1e-10"
	}
	return "floor1e-14"
}

// BenchmarkAblationQuadrature sweeps the transition-integral resolution.
func BenchmarkAblationQuadrature(b *testing.B) {
	for _, cells := range []int{128, 512, 2048} {
		b.Run(cellsName(cells), func(b *testing.B) {
			cfg := genCfg()
			cfg.FineCells = cells
			var acc float64
			for i := 0; i < b.N; i++ {
				pol, err := core.Generate(cfg)
				if err != nil {
					b.Fatal(err)
				}
				acc = pol.ExpectedAccuracy
			}
			b.ReportMetric(acc, "expAccuracy")
		})
	}
}

func cellsName(c int) string {
	switch c {
	case 128:
		return "cells128"
	case 512:
		return "cells512"
	}
	return "cells2048"
}

func BenchmarkFig2LullExploitation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		benchHarness().Fig2()
	}
}

func BenchmarkMisspecArrivalSensitivity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		benchHarness().Misspec()
	}
}

func BenchmarkGreedyStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		benchHarness().Greedy()
	}
}

func BenchmarkScalingStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		benchHarness().Scaling()
	}
}
