package cli

import (
	"errors"
	"fmt"
	"io"
	"strconv"
	"time"

	"ramsis/internal/adapt"
	"ramsis/internal/admit"
	"ramsis/internal/core"
	"ramsis/internal/dist"
	"ramsis/internal/llm"
	"ramsis/internal/profile"
	"ramsis/internal/sim"
	"ramsis/internal/telemetry"
	"ramsis/internal/tenant"
)

// Run is the flag set cmd/serve and cmd/simulate share. Workers, Load and
// Dur carry the binary's own defaults into Register; every other default is
// the same in both. Out receives the status and summary lines.
type Run struct {
	Out io.Writer

	Workload, Task, LB, TraceOut, TenantsFile string
	SLOMS, Load, Dur                          float64
	Workers, D, MaxQueue                      int
	Seed                                      int64

	Adapt                              bool
	AdaptBand, AdaptDwell, AdaptBucket float64

	LLMProfile, LLMClass string
	LLMKVCap, LLMBucket  int

	Admit        string
	AdmitMargin  float64
	AdmitDegrade int
}

// Register declares the shared flags on fs.
func (r *Run) Register(fs *FlagSet) {
	fs.StringVar(&r.Workload, "workload", "scalar", "workload kind: scalar (profile-table batches, one latency per batch) or llm (token streams through continuous-batching workers)")
	fs.StringVar(&r.Task, "task", "image", "inference task: image or text")
	fs.Float64Var(&r.SLOMS, "slo", 150, "latency SLO in milliseconds")
	fs.IntVar(&r.Workers, "workers", r.Workers, "number of workers")
	fs.Var((*Positive)(&r.Load), "load", "query load in QPS (constant trace)")
	fs.Var((*Positive)(&r.Dur), "dur", "trace duration in modeled seconds")
	fs.Int64Var(&r.Seed, "seed", 1, "workload seed")
	fs.IntVar(&r.D, "d", 100, "FLD resolution for RAMSIS policies")
	fs.IntVar(&r.MaxQueue, "maxqueue", 0, fmt.Sprintf("queue-length bound N_w (0 = default %d): caps the RAMSIS MDP state space, and with -admit cap also sets the online admission bound (workers x N_w outstanding) — one knob for both, since policy guarantees lapse past N_w anyway", core.DefaultMaxQueue))
	fs.StringVar(&r.LB, "lb", "rr", "load balancer across worker queues: rr, jsq, or p2c (policies are generated with the matching MDP transition model)")
	fs.StringVar(&r.TraceOut, "trace-out", "", "append per-query trace fragments (with their select decisions) as JSONL to this file; stitch with trace -stitch")

	fs.BoolVar(&r.Adapt, "adapt", false, "close the adaptation loop (RAMSIS policies only): drift-detect the monitored rate, re-solve, and hot-swap policies without pausing dispatch")
	fs.Float64Var(&r.AdaptBand, "adapt-band", 0.2, "adaptation hysteresis half-width as a fraction of the solved-for rate")
	fs.Float64Var(&r.AdaptDwell, "adapt-dwell", 2, "seconds the rate must stay outside the band before re-solving")
	fs.Var((*NonNegative)(&r.AdaptBucket), "adapt-bucket", "rate bucket size in QPS: a drift re-solves at its bucket unless the policy ladder already holds one for it (0 = hysteresis band width at the initial rate)")

	fs.StringVar(&r.TenantsFile, "tenants", "", "multi-tenant mode: tenant contract JSON (name, class, sloMs, weight, rateQps) — per-tenant SLOs and policies under weighted-fair admission; serve starts the sharded plane behind a tenant-routing gateway, simulate offers each tenant its contracted rate over -dur")

	fs.StringVar(&r.LLMProfile, "llm-profile", "", "LLM workload: load a kinded step-model JSON (llm.SaveFile) instead of the built-in chat corpus")
	fs.StringVar(&r.LLMClass, "llm-class", "general", "LLM workload: token-length class (general, codegen, or reasoning)")
	fs.Var((*nonNegativeInt)(&r.LLMKVCap), "llm-kv-cap", "LLM workload: override every step model's KV-cache capacity in tokens (0 = profile values)")
	fs.IntVar(&r.LLMBucket, "llm-bucket", 0, "LLM workload: outstanding-token bucket width of the token-stream MDP (0 = default 512)")

	fs.StringVar(&r.Admit, "admit", "none", "admission control: none, deadline (shed queries whose deadline is unmeetable; a 429 on the wire), or cap (bound outstanding work; unifies the -maxqueue N_w bound online)")
	r.AdmitMargin = 1
	fs.Var((*Positive)(&r.AdmitMargin), "admit-margin", "deadline admission: shed when estimated wait exceeds SLO*margin minus best-case service time")
	fs.Var((*nonNegativeInt)(&r.AdmitDegrade), "admit-degrade", "degraded-mode depth: maximum number of slowest models to forbid under confirmed overload (0 = off; requires -admit)")
}

// Positive is a float64 flag value that must be greater than zero, as a
// load, a duration, an admission margin or a time scale must be; Get lets
// Parse's non-finite screen read it.
type Positive float64

func (v *Positive) String() string { return strconv.FormatFloat(float64(*v), 'g', -1, 64) }
func (v *Positive) Get() any       { return float64(*v) }

func (v *Positive) Set(s string) error {
	x, err := strconv.ParseFloat(s, 64)
	if err != nil || !(x > 0) {
		return fmt.Errorf("%q is not a positive number", s)
	}
	*v = Positive(x)
	return nil
}

// NonNegative is a float64 flag value whose zero keeps a default and which
// must not be negative, as a rate bucket, a latency spread or a retry
// budget must not be.
type NonNegative float64

func (v *NonNegative) String() string { return strconv.FormatFloat(float64(*v), 'g', -1, 64) }
func (v *NonNegative) Get() any       { return float64(*v) }

func (v *NonNegative) Set(s string) error {
	x, err := strconv.ParseFloat(s, 64)
	if err != nil || !(x >= 0) {
		return fmt.Errorf("%q is not a non-negative number", s)
	}
	*v = NonNegative(x)
	return nil
}

// nonNegativeInt is NonNegative for an int flag, as a KV capacity or a
// degrade depth is.
type nonNegativeInt int

func (v *nonNegativeInt) String() string { return strconv.Itoa(int(*v)) }

func (v *nonNegativeInt) Set(s string) error {
	x, err := strconv.ParseInt(s, 0, strconv.IntSize)
	if err != nil || x < 0 {
		return fmt.Errorf("%q is not a non-negative integer", s)
	}
	*v = nonNegativeInt(x)
	return nil
}

// Printf writes one status line to the run's stdout.
func (r *Run) Printf(format string, a ...any) { fmt.Fprintf(r.Out, format, a...) }

// SLO returns the latency SLO in seconds.
func (r *Run) SLO() float64 { return r.SLOMS / 1000 }

// PolicyConfig returns the rate-free RAMSIS generation config: the -task
// model set, SLO, workers, grid, queue bound and balancing. Callers
// set Arrival per load (core.PolicySet and adapt do it themselves).
func (r *Run) PolicyConfig() (core.Config, error) {
	models, taskErr := profile.SetForTask(r.Task)
	balancing, lbErr := core.ParseBalancing(r.LB)
	return core.Config{
		Models: models, SLO: r.SLO(), Workers: r.Workers, Arrival: dist.NewPoisson(1), D: r.D,
		MaxQueue: r.MaxQueue, Balancing: balancing,
	}, errors.Join(taskErr, lbErr)
}

// Admission builds the -admit admitter (nil for none) and, with
// -admit-degrade, the degrader that rides on it. The cap bound is workers x
// N_w, the same N_w the MDP is generated with.
func (r *Run) Admission(models profile.Set) (admit.Admitter, *admit.Degrader, error) {
	if r.Admit == "none" {
		if r.AdmitDegrade > 0 {
			return nil, nil, errors.New("-admit-degrade requires an admitter (-admit deadline or -admit cap)")
		}
		return nil, nil, nil
	}
	nw := r.MaxQueue
	if nw <= 0 {
		nw = core.DefaultMaxQueue
	}
	admitter, err := admit.New(r.Admit, r.SLO(), r.AdmitMargin, nw*r.Workers, core.NewWaitEstimator(models, r.Workers))
	if err != nil {
		return nil, nil, err
	}
	var degrader *admit.Degrader
	if r.AdmitDegrade > 0 {
		degrader = admit.NewDegrader(admit.DegradeConfig{MaxLevel: r.AdmitDegrade, EnterWait: r.SLO()})
	}
	r.Printf("admission control: %s (margin %.2f, degrade depth %d)\n",
		admitter.Name(), r.AdmitMargin, r.AdmitDegrade)
	return admitter, degrader, nil
}

// Adapter builds the -adapt loop around an initial policy. background moves
// re-solves off the caller's goroutine (the live plane must never stall
// dispatch behind one; the simulator solves inline to stay deterministic).
func (r *Run) Adapter(base core.Config, initial *core.Policy, background bool, reg *telemetry.Registry) (*adapt.Adapter, error) {
	return adapt.New(adapt.Config{
		Base: base, Band: r.AdaptBand, Dwell: r.AdaptDwell, BucketSize: r.AdaptBucket,
		Background: background, Telemetry: reg,
	}, initial)
}

// LLM returns the token workload's step-model set (-llm-profile or the
// built-in corpus) and its token-length class.
func (r *Run) LLM() (llm.Set, llm.Class, error) {
	models := llm.BuiltinSet()
	if r.LLMProfile != "" {
		var err error
		if models, err = llm.LoadSetFile(r.LLMProfile); err != nil {
			return llm.Set{}, llm.Class{}, fmt.Errorf("-llm-profile: %w", err)
		}
		r.Printf("loaded %d step models from %s\n", models.Len(), r.LLMProfile)
	}
	class, err := llm.ClassByName(r.LLMClass)
	return models, class, err
}

// LLMPolicy generates the token-stream policy for rate and wraps it as the
// step-boundary selector both LLM drivers consult.
func (r *Run) LLMPolicy(models llm.Set, class llm.Class, rate float64) (*core.LLMPolicy, sim.ModelSelector, error) {
	pol, err := core.GenerateLLM(core.LLMConfig{
		Models: models, SLO: r.SLO(), Workers: r.Workers, Rate: rate,
		In: class.In, Out: class.Out, KVCap: r.LLMKVCap, TokenBucket: r.LLMBucket,
	})
	if err != nil {
		return nil, nil, err
	}
	r.Printf("policy: %d states, %d transitions, %d iterations (build %s, solve %s)\n",
		pol.States, pol.Transitions, pol.Iterations,
		pol.BuildTime.Round(time.Millisecond), pol.SolveTime.Round(time.Millisecond))
	sel, err := sim.NewLLMPolicySelector(pol, models)
	return pol, sel, err
}

// Tenants loads and validates the -tenants contract file; nil without one.
func (r *Run) Tenants() ([]tenant.Tenant, error) {
	if r.TenantsFile == "" {
		return nil, nil
	}
	reg, err := tenant.LoadFile(r.TenantsFile)
	if err != nil {
		return nil, fmt.Errorf("-tenants: %w", err)
	}
	return reg.All(), nil
}
