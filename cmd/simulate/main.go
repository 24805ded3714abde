// Command simulate runs one MS&S method through the discrete-event
// simulator, mirroring the artifact's run_sim.py:
//
//	simulate --m RAMSIS --trace real --task image --slo 150 --workers 60
//	simulate --m JF --trace constant --load 2000 --task image --slo 150 --workers 60
//
// The flags it shares with cmd/serve, and everything derived from them, live
// in internal/cli.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"

	"ramsis/internal/adapt"
	"ramsis/internal/baselines"
	"ramsis/internal/cli"
	"ramsis/internal/core"
	"ramsis/internal/dist"
	"ramsis/internal/monitor"
	"ramsis/internal/sim"
	"ramsis/internal/telemetry"
	"ramsis/internal/tenant"
	"ramsis/internal/trace"
)

// options is the shared flag set plus the flags only the simulator has.
type options struct {
	cli.Run
	method, trace             string
	noise                     float64
	policy, msTable           string
	stepLoad, stepAt, stepDur float64
	tenantMult                string
	tw                        *telemetry.TraceWriter // the -trace-out writer, nil without one
}

func newFlags(stdout io.Writer) (*cli.FlagSet, *options) {
	o := &options{Run: cli.Run{Out: stdout, Workers: 60, Load: 2000, Dur: 30}}
	fs := cli.NewFlagSet("simulate")
	o.Register(fs)
	fs.StringVar(&o.method, "m", "RAMSIS", "MS&S method: RAMSIS, JF, MS, Greedy (-workload llm: RAMSIS, Scalar, Fixed)")
	fs.StringVar(&o.trace, "trace", "constant", "query trace: constant (-load over -dur), real (Twitter), or step (-load with a -step-load burst)")
	fs.Var((*cli.NonNegative)(&o.noise), "noise", "inference latency stddev in ms (0 = deterministic p95)")
	fs.StringVar(&o.policy, "policy", "", "load a saved RAMSIS policy JSON (from ramsisgen) instead of generating")
	fs.StringVar(&o.msTable, "ms-table", "", "load a ModelSwitching profile JSON (from msgen) instead of profiling")
	fs.Float64Var(&o.stepLoad, "step-load", 0, "step trace: QPS during the step (with --trace step)")
	fs.Float64Var(&o.stepAt, "step-at", 10, "step trace: seconds into the run the step starts")
	fs.Float64Var(&o.stepDur, "step-dur", 10, "step trace: step duration in seconds")
	fs.StringVar(&o.tenantMult, "tenant-mult", "", "per-tenant offered-rate multipliers, e.g. bronze=4 or bronze=4,gold=2 — the overload experiment knob (requires -tenants)")
	return fs, o
}

func main() { cli.Main(run) }

func run(_ context.Context, args []string, stdout io.Writer) error {
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
	case "scalar":
		return o.runScalar()
	case "llm":
		if err := fs.Unread("-workload llm", llmUnread...); err != nil {
			return err
		}
		return o.runLLM()
	}
	return fmt.Errorf("unknown -workload %q (want scalar or llm)", o.Workload)
}

// llmUnread are the flags runLLM does not read: the scalar model set and
// policy sources, latency noise, balancing, admission, tenants and
// adaptation.
var llmUnread = []string{
	"task", "d", "policy", "ms-table", "noise", "lb",
	"maxqueue", "admit", "admit-margin", "admit-degrade",
	"tenants", "tenant-mult",
	"adapt", "adapt-band", "adapt-dwell", "adapt-bucket",
}

// loadTrace builds the -trace query trace for both workloads.
func (o *options) loadTrace() (trace.Trace, error) {
	switch o.trace {
	case "constant":
		return trace.Constant(o.Load, o.Dur), nil
	case "real":
		return trace.Twitter(), nil
	case "step":
		if o.stepLoad <= 0 {
			return trace.Trace{}, errors.New("-trace step requires -step-load")
		}
		return trace.Step(o.Load, o.stepLoad, o.stepAt, o.stepAt+o.stepDur, o.Dur), nil
	}
	return trace.Trace{}, fmt.Errorf("unknown -trace %q (want constant, real, or step)", o.trace)
}

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
			return nil, fmt.Errorf("-tenant-mult: %q is not name=factor", kv)
		}
		f, err := strconv.ParseFloat(val, 64)
		if err != nil || !(f > 0) || math.IsInf(f, 0) {
			return nil, fmt.Errorf("-tenant-mult: bad factor in %q", kv)
		}
		out[strings.TrimSpace(name)] = f
	}
	return out, nil
}

// runLLM runs one method through the token-level continuous-batching
// simulator: RAMSIS selects from the token-stream policy, Scalar from a
// queue-state policy over collapsed per-query profiles (what the scalar MDP
// would see for this workload), and Fixed pins the most accurate model.
func (o *options) runLLM() error {
	models, class, err := o.LLM()
	if err != nil {
		return err
	}
	tr, err := o.loadTrace()
	if err != nil {
		return err
	}
	rate := o.Load
	if o.trace != "constant" {
		// One policy per run: provision non-constant traces for their peak.
		rate = tr.MaxQPS()
	}

	var sel sim.ModelSelector
	var tokenPol *core.LLMPolicy
	switch o.method {
	case "RAMSIS":
		o.Printf("generating token-stream policy (%s class, SLO %.0f ms, %d workers, %.0f QPS)...\n",
			class.Name, o.SLOMS, o.Workers, rate)
		if tokenPol, sel, err = o.LLMPolicy(models, class, rate); err != nil {
			return err
		}
	case "Scalar":
		o.Printf("generating scalar queue-state policy over collapsed profiles (%.0f QPS)...\n", rate)
		pol, err := core.Generate(core.Config{
			Models:  models.ScalarProfiles(class.In.MeanLen(), class.Out.MeanLen(), 0),
			SLO:     o.SLO(),
			Workers: o.Workers,
			Arrival: dist.NewPoisson(rate),
		})
		if err != nil {
			return err
		}
		if sel, err = sim.NewScalarPolicySelector(pol, models); err != nil {
			return err
		}
	case "Fixed":
		sel = sim.FixedSelector(models.MostAccurate())
	default:
		return fmt.Errorf("unknown LLM method -m %q (want RAMSIS, Scalar, or Fixed)", o.method)
	}

	e := sim.NewLLMEngine(models, o.SLO(), o.Workers, sel)
	e.KVCap = o.LLMKVCap
	e.CollectLatencies = true
	e.TraceWriter = o.tw
	events := trace.TokenArrivals(tr, o.Seed, class.In, class.Out)
	queries := make([]sim.TokenQuery, len(events))
	for i, ev := range events {
		queries[i] = sim.TokenQuery{ID: i, Arrival: ev.T, Prefill: ev.Prefill, Decode: ev.Decode}
	}
	o.Printf("simulating %d token-annotated queries (%s trace, %s class, SLO %.0f ms, %d workers)...\n",
		len(queries), tr.Name, class.Name, o.SLOMS, o.Workers)
	m := e.Run(queries)

	o.Printf("method:                      %s\n", o.method)
	o.Printf("served / dropped:            %d / %d\n", m.Served, m.Dropped)
	o.Printf("steps / model switches:      %d / %d\n", m.Steps, m.ModelSwitches)
	o.Printf("prefill / decode tokens:     %d / %d\n", m.PrefillTokens, m.DecodeTokens)
	o.Printf("peak KV usage:               %.4f\n", m.PeakKVUsage)
	o.PrintLLM(m, "TBT")
	o.PrintModelUsage(m.ModelCounts)
	if tokenPol != nil {
		o.PrintExpectation(tokenPol.ExpectedAccuracy, tokenPol.ExpectedViolation)
	}
	o.Printf("script complete!\n")
	return nil
}

// runScalar runs one MS&S method over the -task profile set.
func (o *options) runScalar() error {
	base, err := o.PolicyConfig()
	if err != nil {
		return err
	}
	models, slo, balancing := base.Models, base.SLO, base.Balancing
	tenants, err := o.Tenants()
	if err != nil {
		return err
	}
	var mult map[string]float64
	if tenants != nil {
		if mult, err = parseMultipliers(o.tenantMult); err != nil {
			return err
		}
		// The method solves for the contracted aggregate: overload beyond a
		// contract is the fair admitter's problem, not the solver's. The
		// constant trace at that rate also keeps the oracle monitor honest.
		o.trace, o.Load = "constant", 0
		for _, t := range tenants {
			o.Load += t.RateQPS
		}
	} else if o.tenantMult != "" {
		return errors.New("-tenant-mult requires -tenants")
	}
	tr, err := o.loadTrace()
	if err != nil {
		return err
	}
	var mon monitor.Monitor = monitor.NewMovingAverage(0.5)
	if o.trace == "constant" {
		mon = monitor.Oracle{Trace: tr}
	}
	if o.Adapt && o.method != "RAMSIS" {
		return fmt.Errorf("-adapt applies to the RAMSIS method, not -m %q", o.method)
	}

	var sched sim.Scheduler
	var adapter *adapt.Adapter
	switch o.method {
	case "RAMSIS":
		var r *sim.RAMSIS
		if r, adapter, err = o.ramsis(base, tr, mon); err != nil {
			return err
		}
		r.LB = sim.BalancerFor(balancing, o.Seed)
		sched = r
	case "JF":
		sched = sim.Scheme{Monitor: mon, Select: baselines.JellyfishPlus{Profiles: models, SLO: slo, Workers: o.Workers}.Selector()}
	case "MS":
		var table *baselines.MSTable
		if o.msTable != "" {
			data, err := os.ReadFile(o.msTable)
			if err != nil {
				return fmt.Errorf("-ms-table: %w", err)
			}
			table = &baselines.MSTable{}
			if err := json.Unmarshal(data, table); err != nil {
				return fmt.Errorf("-ms-table: decode %s: %w", o.msTable, err)
			}
			if len(table.P99) != models.Len() {
				return fmt.Errorf("-ms-table: %s profiles %d models, task has %d", o.msTable, len(table.P99), models.Len())
			}
			o.Printf("loaded ModelSwitching profile %s (%d load rungs)\n", o.msTable, len(table.Loads))
		} else {
			var loads []float64
			for l := 400.0; l <= 4400; l += 400 {
				loads = append(loads, l)
			}
			o.Printf("profiling ModelSwitching response latencies...\n")
			table = baselines.ProfileModelSwitching(models, slo, o.Workers, loads, 10, o.Seed)
		}
		sched = sim.Scheme{Monitor: mon, Select: baselines.ModelSwitching{Profiles: models, SLO: slo, Table: table}.Selector()}
	case "Greedy":
		sched = sim.Scheme{Monitor: mon, Select: baselines.Greedy{Profiles: models, SLO: slo}.Select}
	default:
		return fmt.Errorf("unknown method -m %q (want RAMSIS, JF, MS, or Greedy)", o.method)
	}

	var lat sim.LatencyModel = sim.Deterministic{}
	if o.noise > 0 {
		lat = sim.Stochastic{StdDev: o.noise / 1000}
	}
	e := sim.NewEngine(models, slo, o.Workers, lat, sched, o.Seed)
	if o.tw != nil {
		e.TraceWriter = o.tw
		e.Decisions = telemetry.NewDecisionBuffer(0)
	}
	admitter, degrader, err := o.Admission(models)
	if err != nil {
		return err
	}
	e.Admit, e.Degrade = admitter, degrader
	var m sim.Metrics
	if tenants != nil {
		reg, err := tenant.NewRegistry(tenants)
		if err != nil {
			return err
		}
		e.TenantSLOs = make(map[string]float64, len(tenants))
		for _, t := range tenants {
			e.TenantSLOs[t.Name] = t.SLO()
		}
		// Weighted-fair admission wraps whatever -admit configured as the
		// inner, capacity-facing layer.
		e.FairAdmit = tenant.NewFairAdmitter(reg, e.Admit, tenant.FairConfig{})
		evs := tenant.ArrivalsScaled(tenants, mult, o.Dur, o.Seed)
		queries := make([]sim.Query, len(evs))
		for i, ev := range evs {
			queries[i] = sim.Query{ID: i, Arrival: ev.T, Tenant: ev.Tenant}
		}
		o.Printf("simulating %d queries (%d tenants, %s, %d workers, fair admission)...\n",
			len(queries), len(tenants), o.Task, o.Workers)
		m = e.RunQueries(queries)
	} else {
		arrivals := trace.PoissonArrivals(tr, o.Seed)
		o.Printf("simulating %d queries (%s trace, %s, SLO %.0f ms, %d workers)...\n",
			len(arrivals), tr.Name, o.Task, o.SLOMS, o.Workers)
		m = e.Run(arrivals)
	}

	o.Printf("method:                      %s\n", o.method)
	o.Printf("served:                      %d\n", m.Served)
	o.Printf("decisions:                   %d\n", m.Decisions)
	o.PrintServing(m, e.Admit != nil || e.FairAdmit != nil, degrader)
	o.PrintModelUsage(m.ModelCounts)
	if m.Tenants != nil {
		names := make([]string, 0, len(m.Tenants))
		for name := range m.Tenants {
			names = append(names, name)
		}
		sort.Strings(names)
		o.Printf("per-tenant breakdown:\n")
		for _, name := range names {
			tm := m.Tenants[name]
			o.Printf("  %-12s offered %6d  served %6d  shed %5d  violations %5d  goodput %.4f\n",
				name, tm.Offered(), tm.Served, tm.Shed, tm.Violations, tm.GoodputRate())
		}
	}
	o.PrintAdaptation(adapter)
	o.Printf("script complete!\n")
	return nil
}

// ramsis builds the RAMSIS scheduler: with -adapt, one policy (loaded or
// solved for the trace's starting rate) under the adaptation loop — every
// later rate is the drift detector's job; otherwise a policy set, loaded
// from -policy or generated for the trace's load range.
func (o *options) ramsis(base core.Config, tr trace.Trace, mon monitor.Monitor) (*sim.RAMSIS, *adapt.Adapter, error) {
	var loaded *core.Policy
	if o.policy != "" {
		var err error
		if loaded, err = core.LoadPolicy(o.policy, base.Models); err != nil {
			return nil, nil, fmt.Errorf("-policy: %w", err)
		}
	}
	if o.Adapt {
		initial := loaded
		if initial != nil {
			o.Printf("loaded initial policy %s (load %.0f QPS)\n", o.policy, initial.Load)
		} else {
			cfg := base
			cfg.Arrival = dist.NewPoisson(tr.QPSAt(0))
			o.Printf("generating initial RAMSIS policy at %.0f QPS...\n", tr.QPSAt(0))
			var err error
			if initial, err = core.Generate(cfg); err != nil {
				return nil, nil, err
			}
		}
		adapter, err := o.Adapter(base, initial, false, nil)
		if err != nil {
			return nil, nil, err
		}
		return sim.NewAdaptiveRAMSIS(adapter, mon), adapter, nil
	}
	set := core.NewPolicySet(base, nil)
	if loaded != nil {
		if loaded.SLO != base.SLO || loaded.Workers != o.Workers {
			return nil, nil, fmt.Errorf("-policy: %s was generated for SLO %.0fms / %d workers, not %.0fms / %d",
				o.policy, loaded.SLO*1000, loaded.Workers, o.SLOMS, o.Workers)
		}
		if loaded.Balancing != base.Balancing {
			log.Printf("warning: policy %s assumes %s balancing but -lb requested %s; routing with %s",
				o.policy, loaded.Balancing, base.Balancing, base.Balancing)
		}
		set.Insert(loaded)
		o.Printf("loaded policy %s (load %.0f QPS)\n", o.policy, loaded.Load)
	} else {
		loads := []float64{o.Load}
		if o.trace != "constant" {
			loads = nil
			for l := 400.0; l <= tr.MaxQPS()*1.2+400; l += 400 {
				loads = append(loads, l)
			}
		}
		o.Printf("generating %d RAMSIS policies...\n", len(loads))
		if err := set.GenerateLoads(loads); err != nil {
			return nil, nil, err
		}
	}
	return sim.NewRAMSIS(set, mon), nil, nil
}
