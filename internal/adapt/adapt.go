// Package adapt is the one place a policy is generated online. An Adapter
// answers decisions from a policy ladder (core.PolicySet) and generates
// into it when its trigger fires; the constructor picks the trigger:
//
//   - NewCoverage, §3.2.2's on-demand rule: a load above the ladder's top
//     rung generates the rung covering it, with no dwell.
//   - New, §6's drift rule: when the monitored rate sits outside a
//     hysteresis band around the active policy's rate for a minimum dwell,
//     the per-worker MDP is re-solved at the new rate's bucket. The ladder
//     is the one store: a bucket it already holds is installed with no
//     solve, and otherwise its nearest bucket's policy warm-starts one.
//
// A new policy is published with PolicySet.Insert, whose lock every lookup
// already takes, and an adapter runs one generation at a time. The
// simulator and the serving prototype differ only in Config.Background:
// inline, a generation costs zero modeled time and answers the decision
// that fired it; in the background, decisions keep the old ladder until
// the insert, and Stop waits for the goroutine.
package adapt

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"ramsis/internal/core"
	"ramsis/internal/dist"
	"ramsis/internal/telemetry"
)

// onDemandRung is the granularity the coverage trigger rounds a load up
// to, so a stream of slightly different loads past the ladder does not
// generate a policy per decision.
const onDemandRung = 100.0

// Config parameterizes an Adapter.
type Config struct {
	// Base is the generation problem (models, SLO, workers, knobs). Its
	// Arrival field is overridden per rate bucket (Poisson at the bucket's
	// rate, as in the paper); every re-solve runs core.Generate's one
	// solver, warm-started from the nearest rung's values.
	Base core.Config
	// Band is the fractional hysteresis half-width around the solved-for
	// rate, in [0, 1) (0 defaults to 0.2, i.e. ±20 %).
	Band float64
	// Dwell is how long (modeled seconds) the rate must sit outside the
	// band before drift is confirmed (0 defaults to 2 s; negative means
	// fire immediately).
	Dwell float64
	// BucketSize quantizes drifted rates before solving, so near-identical
	// rates share one policy in the ladder (0 defaults to the
	// hysteresis band width at the initial rate, Band×initial.Load, so a
	// confirmed drift always changes buckets).
	BucketSize float64
	// Background re-solves on a goroutine instead of inline. The serving
	// path sets it so dispatch never stalls behind a solve; the simulator
	// leaves it unset because an inline solve costs zero modeled time.
	// Stop waits for the goroutine.
	Background bool
	// Telemetry optionally mirrors the adapter's counters into a metrics
	// registry under the ramsis_adapt_* names.
	Telemetry *telemetry.Registry
	// Decisions, when set, records every policy hot-swap as an adapt_swap
	// decision: the drifted rate bucket it re-solved for and the wall-clock
	// drift-to-swap latency dispatch spent on the stale policy.
	Decisions *telemetry.DecisionBuffer
	// Tenant labels the adapter's decision records in multi-tenant planes.
	Tenant string
}

// Stats is a consistent snapshot of the adapter's counters.
type Stats struct {
	// Resolves counts generations attempted: re-solves on drift (ladder
	// hits do not solve and are not counted), or rungs on demand.
	Resolves uint64
	// ResolveErrors counts generations that failed; the ladder stayed as
	// it was.
	ResolveErrors uint64
	// CacheHits counts drift events whose bucket the ladder held (no solve).
	CacheHits uint64
	// CacheMisses counts drift events that had to solve.
	CacheMisses uint64
	// Swaps counts policies published to the dispatch path.
	Swaps uint64
	// WarmStarts counts re-solves seeded from the ladder's nearest bucket's
	// converged value vector instead of zeros.
	WarmStarts uint64
	// LastResolveIterations is the solver iteration count of the most
	// recent successful re-solve (0 before the first one). Warm-started
	// re-solves show measurably fewer iterations than cold solves.
	LastResolveIterations uint64
	// ActiveBucket is the rate bucket (QPS) of the currently active policy.
	ActiveBucket float64
}

// Adapter owns a policy ladder and the trigger that generates into it.
// Policy answers decisions; Observe feeds the drift trigger alone.
type Adapter struct {
	cfg Config
	set *core.PolicySet

	mu        sync.Mutex
	det       *Detector // nil under the coverage trigger
	resolving bool      // the one-generation latch
	stopped   bool
	running   sync.WaitGroup // one per latch holder, inline or background

	bucket atomic.Uint64 // Float64bits of the active rate bucket

	lastNow atomic.Uint64 // Float64bits of the last Observe's modeled time

	resolves, resolveErrors   atomic.Uint64
	cacheHits, cacheMisses    atomic.Uint64
	swaps, warmStarts         atomic.Uint64
	lastResolveIterations     atomic.Uint64
	mResolves, mResolveErrors *telemetry.Counter
	mCacheHits, mCacheMisses  *telemetry.Counter
	mSwaps, mWarmStarts       *telemetry.Counter
	mSwapSeconds              *telemetry.Histogram
	mBucket, mResolveIters    *telemetry.Gauge
	mResolveBuild             *telemetry.Gauge
	mResolveSolve             *telemetry.Gauge
}

// NewCoverage builds §3.2.2's on-demand adapter over a policy ladder. A
// rung it generates goes through set.GenerateLoads, so it keeps the set's
// arrival family and lands in the caller's set. reg, when set, mirrors
// Resolves, ResolveErrors and Swaps under their ramsis_adapt_* names.
func NewCoverage(set *core.PolicySet, background bool, reg *telemetry.Registry) *Adapter {
	a := &Adapter{cfg: Config{Background: background}, set: set}
	if reg != nil {
		a.mResolves = reg.Counter(telemetry.MetricAdaptResolves)
		a.mResolveErrors = reg.Counter(telemetry.MetricAdaptResolveErrors)
		a.mSwaps = reg.Counter(telemetry.MetricAdaptSwaps)
	}
	return a
}

// New builds §6's drift adapter around an initial policy (solved offline
// for the anticipated starting rate). The detector centers on the policy's
// load, and the policy seeds the adapter's ladder — so drifting away and
// back is one solve and one ladder hit.
func New(cfg Config, initial *core.Policy) (*Adapter, error) {
	if initial == nil {
		return nil, errors.New("adapt: initial policy required")
	}
	if !(cfg.Band >= 0 && cfg.Band < 1) {
		return nil, fmt.Errorf("adapt: hysteresis band %g outside [0, 1)", cfg.Band)
	}
	if cfg.Band == 0 {
		cfg.Band = 0.2
	}
	if cfg.Dwell == 0 {
		cfg.Dwell = 2
	}
	if cfg.BucketSize <= 0 {
		// Default to the hysteresis band width at the initial rate: a
		// confirmed drift has, by definition, moved at least Band×center
		// away, so it always lands in a different bucket than the active
		// policy and is never swallowed by the sub-bucket short-circuit.
		// (A fixed coarse default such as the on-demand rung would alias
		// every rate below 1.5 rungs into one bucket and blind the adapter
		// at small deployments.)
		cfg.BucketSize = initial.Load * cfg.Band
		if cfg.BucketSize <= 0 {
			cfg.BucketSize = onDemandRung
		}
	}
	a := &Adapter{
		cfg: cfg,
		set: core.NewPolicySet(cfg.Base, nil),
		det: NewDetector(initial.Load, cfg.Band, cfg.Dwell),
	}
	a.set.Insert(initial)
	bucket := bucketOf(initial.Load, cfg.BucketSize)
	a.bucket.Store(math.Float64bits(bucket))
	if r := cfg.Telemetry; r != nil {
		a.mResolves = r.Counter(telemetry.MetricAdaptResolves)
		a.mResolveErrors = r.Counter(telemetry.MetricAdaptResolveErrors)
		a.mCacheHits = r.Counter(telemetry.MetricAdaptCacheHits)
		a.mCacheMisses = r.Counter(telemetry.MetricAdaptCacheMisses)
		a.mSwaps = r.Counter(telemetry.MetricAdaptSwaps)
		a.mWarmStarts = r.Counter(telemetry.MetricAdaptWarmStarts)
		a.mSwapSeconds = r.Histogram(telemetry.MetricAdaptSwapSeconds)
		a.mBucket = r.Gauge(telemetry.MetricAdaptRateBucket)
		a.mResolveIters = r.Gauge(telemetry.MetricAdaptResolveIterations)
		a.mResolveBuild = r.Gauge(telemetry.MetricAdaptResolveBuildSeconds)
		a.mResolveSolve = r.Gauge(telemetry.MetricAdaptResolveSolveSeconds)
		a.mBucket.Set(bucket)
	}
	return a, nil
}

// bucketOf quantizes a rate to the nearest bucket (minimum one bucket).
func bucketOf(rate, size float64) float64 {
	b := math.Round(rate/size) * size
	if b < size {
		b = size
	}
	return b
}

// PolicyFor returns the ladder's policy for an anticipated load: a lookup,
// never a generation, and no trigger.
func (a *Adapter) PolicyFor(load float64) *core.Policy {
	p, _ := a.set.Best(load)
	return p
}

// Policy answers one decision at modeled time now: it feeds the anticipated
// load to the adapter's trigger and returns the ladder's policy for it (nil
// only for an empty ladder). Under the coverage trigger a covered load costs
// one ladder lookup and takes no lock of the adapter's.
func (a *Adapter) Policy(now, load float64) *core.Policy {
	if a.det != nil {
		a.Observe(now, load)
		return a.PolicyFor(load)
	}
	p, covered := a.set.Best(load)
	if covered || p == nil {
		return p
	}
	return a.cover(load)
}

// cover is the coverage trigger for a load above the ladder's top rung.
// Inline, the decision gets the new rung; in the background, or while
// another generation runs, or after Stop, it gets the top rung. The lookup
// is repeated under mu: a generation may have covered load since the last.
func (a *Adapter) cover(load float64) *core.Policy {
	a.mu.Lock()
	top, covered := a.set.Best(load)
	if a.stopped || a.resolving || covered {
		a.mu.Unlock()
		return top
	}
	a.begin()
	a.mu.Unlock()
	rung := roundUpRung(load)
	if a.cfg.Background {
		go a.generateRung(rung)
		return top
	}
	a.generateRung(rung)
	return a.PolicyFor(load)
}

// roundUpRung is the smallest positive multiple of onDemandRung at or
// above load (the division may round down onto one below it).
func roundUpRung(load float64) float64 {
	r := max(onDemandRung, math.Ceil(load/onDemandRung)*onDemandRung)
	if r < load {
		r += onDemandRung
	}
	return r
}

// generateRung generates one rung into the ladder and counts it. A failed
// generation leaves the ladder as it was, so the next uncovered decision
// retries.
func (a *Adapter) generateRung(rung float64) {
	defer a.end()
	a.resolves.Add(1)
	inc(a.mResolves)
	if err := a.set.GenerateLoads([]float64{rung}); err != nil {
		a.resolveErrors.Add(1)
		inc(a.mResolveErrors)
		return
	}
	a.swaps.Add(1)
	inc(a.mSwaps)
}

// ActiveBucket returns the rate bucket of the currently active policy.
func (a *Adapter) ActiveBucket() float64 {
	return math.Float64frombits(a.bucket.Load())
}

// Stats returns a snapshot of the adapter's counters.
func (a *Adapter) Stats() Stats {
	return Stats{
		Resolves:              a.resolves.Load(),
		ResolveErrors:         a.resolveErrors.Load(),
		CacheHits:             a.cacheHits.Load(),
		CacheMisses:           a.cacheMisses.Load(),
		Swaps:                 a.swaps.Load(),
		WarmStarts:            a.warmStarts.Load(),
		LastResolveIterations: a.lastResolveIterations.Load(),
		ActiveBucket:          a.ActiveBucket(),
	}
}

// Observe feeds one monitored rate reading at modeled time now to the
// drift trigger; a coverage adapter ignores it. When drift is confirmed, it
// installs the ladder's policy for the drifted rate's bucket, or re-solves
// one into the ladder. With Config.Background the solve runs on a goroutine
// and Observe returns immediately; otherwise the swap completes before
// Observe returns.
//
// A failed re-solve leaves the previous policy active; it is retried on the
// next confirmed drift event.
func (a *Adapter) Observe(now, rate float64) {
	if a.det == nil {
		return
	}
	a.lastNow.Store(math.Float64bits(now))
	a.mu.Lock()
	if a.stopped || a.resolving || !a.det.Observe(now, rate) {
		a.mu.Unlock()
		return
	}
	// Drift confirmed: recenter on the observed rate so this event fires
	// exactly once, and pick the bucket to serve it.
	a.det.Recenter(rate)
	target := bucketOf(rate, a.cfg.BucketSize)
	if target == a.ActiveBucket() {
		// The rate moved outside the band but not far enough to change
		// buckets (sub-bucket drift): the active policy already covers it.
		a.mu.Unlock()
		return
	}
	a.begin()
	a.mu.Unlock()

	start := time.Now()
	hit, donor := a.stored(target)
	if hit != nil {
		a.cacheHits.Add(1)
		inc(a.mCacheHits)
		a.install(hit, start)
		a.end()
		return
	}
	a.cacheMisses.Add(1)
	inc(a.mCacheMisses)
	if a.cfg.Background {
		go a.resolve(target, donor, start)
	} else {
		a.resolve(target, donor, start)
	}
}

// stored looks a rate bucket up in the ladder: hit is a policy whose load
// quantizes to bucket; otherwise donor is the policy of the nearest bucket,
// the lower one on a tie (the ladder is sorted by load, so the first found).
func (a *Adapter) stored(bucket float64) (hit, donor *core.Policy) {
	best := math.Inf(1)
	for _, p := range a.set.Policies() {
		b := bucketOf(p.Load, a.cfg.BucketSize)
		if b == bucket {
			return p, nil
		}
		if d := math.Abs(b - bucket); d < best {
			best, donor = d, p
		}
	}
	return nil, donor
}

// resolve generates a policy for the bucket and swaps it in. The solve
// warm-starts from the donor's converged value vector (the ladder is never
// empty, so there is one): the state space is identical (only the arrival
// differs), so the solver starts close to the new fixed point and converges
// in fewer sweeps — directly shrinking the drift-to-swap window dispatch
// spends on the stale policy.
func (a *Adapter) resolve(bucket float64, donor *core.Policy, start time.Time) {
	defer a.end()
	a.resolves.Add(1)
	inc(a.mResolves)
	cfg := a.cfg.Base
	cfg.Arrival = dist.NewPoisson(bucket)
	if vals := donor.SolveValues(); vals != nil {
		cfg.InitialValues = vals
		a.warmStarts.Add(1)
		inc(a.mWarmStarts)
	}
	pol, err := core.Generate(cfg)
	if err != nil {
		a.resolveErrors.Add(1)
		inc(a.mResolveErrors)
		return
	}
	a.lastResolveIterations.Store(uint64(pol.Iterations))
	if a.mResolveIters != nil {
		a.mResolveIters.Set(float64(pol.Iterations))
		a.mResolveBuild.Set(pol.BuildTime.Seconds())
		a.mResolveSolve.Set(pol.SolveTime.Seconds())
	}
	a.install(pol, start)
}

// Install publishes a policy immediately, as the active one of its load's
// rate bucket: one insert into the ladder. A decision already past its
// lookup finishes on the old policy; the next one sees the new ladder.
func (a *Adapter) Install(pol *core.Policy) {
	a.install(pol, time.Now())
}

func (a *Adapter) install(pol *core.Policy, start time.Time) {
	bucket := bucketOf(pol.Load, a.cfg.BucketSize)
	a.mu.Lock()
	a.set.Insert(pol)
	a.bucket.Store(math.Float64bits(bucket))
	a.mu.Unlock()
	a.swaps.Add(1)
	inc(a.mSwaps)
	if a.mSwapSeconds != nil {
		a.mSwapSeconds.Observe(time.Since(start).Seconds())
	}
	if a.mBucket != nil {
		a.mBucket.Set(bucket)
	}
	if a.cfg.Decisions != nil {
		a.cfg.Decisions.Add(telemetry.Decision{
			Kind:    telemetry.DecisionAdaptSwap,
			Time:    math.Float64frombits(a.lastNow.Load()),
			Tenant:  a.cfg.Tenant,
			Worker:  -1,
			RateQPS: bucket,
			// RealizedSec is the wall-clock drift-to-swap window: how long
			// dispatch ran on the stale policy after drift was confirmed.
			RealizedSec: time.Since(start).Seconds(),
			Outcome:     fmt.Sprintf("hot-swap to %g qps bucket", bucket),
		})
	}
}

// begin takes the one-generation latch; the caller holds mu and has seen
// the adapter neither stopped nor resolving.
func (a *Adapter) begin() {
	a.resolving = true
	a.running.Add(1)
}

// end releases the latch.
func (a *Adapter) end() {
	a.mu.Lock()
	a.resolving = false
	a.mu.Unlock()
	a.running.Done()
}

// Stop waits for a generation in flight, inline or background; after it,
// triggers do nothing. Whoever constructs an adapter stops it, and
// repeating Stop does nothing.
func (a *Adapter) Stop() {
	a.mu.Lock()
	a.stopped = true
	a.mu.Unlock()
	a.running.Wait()
}

func inc(c *telemetry.Counter) {
	if c != nil {
		c.Inc()
	}
}
