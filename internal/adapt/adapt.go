// Package adapt closes the loop between the load monitor and the offline
// policy generator (§3.2.2, §6 "Query Load Adaptation"): a drift detector
// watches the monitored arrival rate, and when the rate has genuinely moved
// away from what the active policy was solved for — outside a hysteresis
// band for a minimum dwell time — the adapter re-solves the per-worker MDP
// at the new rate and hot-swaps the result into the dispatch path without
// pausing it. Policy sets are copy-on-write behind an atomic pointer, so
// the decision path is a lock-free load; an LRU cache keyed by (rate
// bucket, SLO, config hash) makes returning to a previously seen rate a
// lookup instead of a solve.
//
// The same adapter drives both the simulator (inline re-solves: a solve
// costs zero modeled time) and the serving prototype (background re-solves
// on a goroutine: dispatch keeps running on the old policy until the swap).
package adapt

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"ramsis/internal/core"
	"ramsis/internal/dist"
	"ramsis/internal/telemetry"
)

// cacheSize bounds the adapter's LRU policy cache.
const cacheSize = 16

// Config parameterizes an Adapter.
type Config struct {
	// Base is the generation problem (models, SLO, workers, knobs). Its
	// Arrival field is overridden per rate bucket (Poisson at the bucket's
	// rate, as in the paper) and its Jacobi field is cleared, whatever the
	// caller set: drift re-solves are latency-critical (dispatch runs on the
	// stale policy until the swap) and the prioritized method reaches the
	// same policy as the synchronous sweep in a fraction of the time.
	Base core.Config
	// Band is the fractional hysteresis half-width around the solved-for
	// rate (0 defaults to 0.2, i.e. ±20 %).
	Band float64
	// Dwell is how long (modeled seconds) the rate must sit outside the
	// band before drift is confirmed (0 defaults to 2 s; negative means
	// fire immediately).
	Dwell float64
	// BucketSize quantizes drifted rates before solving, so near-identical
	// rates share one policy and one cache entry (0 defaults to the
	// hysteresis band width at the initial rate, Band×initial.Load, so a
	// confirmed drift always changes buckets).
	BucketSize float64
	// Background re-solves on a goroutine instead of inline. The serving
	// path sets it so dispatch never stalls behind a solve; the simulator
	// leaves it unset because an inline solve costs zero modeled time.
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
	// Resolves counts MDP re-solves attempted on drift (cache hits do not
	// solve and are not counted).
	Resolves uint64
	// ResolveErrors counts re-solves that failed; the previous policy
	// stayed active.
	ResolveErrors uint64
	// CacheHits counts drift events served from the LRU cache.
	CacheHits uint64
	// CacheMisses counts drift events that had to solve.
	CacheMisses uint64
	// Swaps counts policy-set hot-swaps published to the dispatch path.
	Swaps uint64
	// WarmStarts counts re-solves seeded from a cached neighboring bucket's
	// converged value vector instead of zeros.
	WarmStarts uint64
	// LastResolveIterations is the solver iteration count of the most
	// recent successful re-solve (0 before the first one). Warm-started
	// re-solves show measurably fewer iterations than cold solves.
	LastResolveIterations uint64
	// ActiveBucket is the rate bucket (QPS) of the currently active policy.
	ActiveBucket float64
}

// Adapter owns the drift detector, the policy cache, and the published
// policy set. Observe feeds it monitored rates; PolicyFor serves the
// dispatch path lock-free.
type Adapter struct {
	cfg  Config
	hash uint64

	mu        sync.Mutex
	det       *Detector
	resolving bool

	cur    atomic.Pointer[core.PolicySet]
	bucket atomic.Uint64 // Float64bits of the active rate bucket
	cache  *Cache

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

// New builds an adapter around an initial policy (solved offline for the
// anticipated starting rate). The detector centers on the policy's load,
// and the policy seeds both the published set and the cache — so drifting
// away and back is one solve and one cache hit.
func New(cfg Config, initial *core.Policy) (*Adapter, error) {
	if initial == nil {
		return nil, errNilInitial
	}
	cfg.Base.Jacobi = false
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
			cfg.BucketSize = core.OnDemandRung
		}
	}
	a := &Adapter{
		cfg:   cfg,
		hash:  ConfigHash(cfg.Base),
		det:   NewDetector(initial.Load, cfg.Band, cfg.Dwell),
		cache: NewCache(cacheSize),
	}
	set := core.NewPolicySet(cfg.Base, nil)
	set.Insert(initial)
	a.cur.Store(set)
	bucket := bucketOf(initial.Load, cfg.BucketSize)
	a.bucket.Store(math.Float64bits(bucket))
	a.cache.Put(a.key(bucket), initial)
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

type nilInitialError struct{}

func (nilInitialError) Error() string { return "adapt: initial policy required" }

var errNilInitial = nilInitialError{}

// key builds the cache key for a rate bucket under the adapter's problem.
func (a *Adapter) key(bucket float64) Key {
	return Key{Bucket: bucket, SLO: a.cfg.Base.SLO, ConfigHash: a.hash}
}

// bucketOf quantizes a rate to the nearest bucket (minimum one bucket).
func bucketOf(rate, size float64) float64 {
	b := math.Round(rate/size) * size
	if b < size {
		b = size
	}
	return b
}

// Current returns the published policy set. The returned set is never
// mutated after publication.
func (a *Adapter) Current() *core.PolicySet { return a.cur.Load() }

// PolicyFor returns the policy serving an anticipated load from the current
// set: one atomic pointer load plus a ladder lookup, never a solve.
func (a *Adapter) PolicyFor(load float64) *core.Policy {
	return a.cur.Load().Best(load)
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

// Observe feeds one monitored rate reading at modeled time now. When drift
// is confirmed, it re-solves (or cache-loads) a policy for the drifted
// rate's bucket and hot-swaps it into the published set. With
// Config.Background the solve runs on a goroutine and Observe returns
// immediately; otherwise the swap completes before Observe returns.
//
// A failed re-solve leaves the previous policy active; it is retried on the
// next confirmed drift event.
func (a *Adapter) Observe(now, rate float64) {
	a.lastNow.Store(math.Float64bits(now))
	a.mu.Lock()
	if a.resolving || !a.det.Observe(now, rate) {
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
	a.resolving = true
	a.mu.Unlock()

	start := time.Now()
	if pol, ok := a.cache.Get(a.key(target)); ok {
		a.cacheHits.Add(1)
		inc(a.mCacheHits)
		a.install(target, pol, start)
		a.clearResolving()
		return
	}
	a.cacheMisses.Add(1)
	inc(a.mCacheMisses)
	if a.cfg.Background {
		go a.resolve(target, start)
	} else {
		a.resolve(target, start)
	}
}

// resolve generates a policy for the bucket, caches it, and swaps it in.
// When the cache holds a policy for any bucket of the same problem, the
// solve warm-starts from the nearest bucket's converged value vector: the
// state space is identical (only the arrival differs), so the solver starts
// close to the new fixed point and converges in fewer sweeps — directly
// shrinking the drift-to-swap window dispatch spends on the stale policy.
func (a *Adapter) resolve(bucket float64, start time.Time) {
	defer a.clearResolving()
	a.resolves.Add(1)
	inc(a.mResolves)
	cfg := a.cfg.Base
	cfg.Arrival = dist.NewPoisson(bucket)
	if donor, ok := a.cache.Nearest(a.key(bucket)); ok {
		if vals := donor.SolveValues(); vals != nil {
			cfg.InitialValues = vals
			a.warmStarts.Add(1)
			inc(a.mWarmStarts)
		}
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
	a.cache.Put(a.key(bucket), pol)
	a.install(bucket, pol, start)
}

// Install publishes a policy for a rate bucket immediately: the current set
// is cloned copy-on-write, the policy inserted, and the new set stored in
// one atomic swap. Dispatchers holding the old pointer finish their
// decision on the old ladder; the next decision sees the new one.
func (a *Adapter) Install(bucket float64, pol *core.Policy) {
	a.install(bucket, pol, time.Now())
}

func (a *Adapter) install(bucket float64, pol *core.Policy, start time.Time) {
	a.mu.Lock()
	next := a.cur.Load().Clone()
	next.Insert(pol)
	a.cur.Store(next)
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

func (a *Adapter) clearResolving() {
	a.mu.Lock()
	a.resolving = false
	a.mu.Unlock()
}

func inc(c *telemetry.Counter) {
	if c != nil {
		c.Inc()
	}
}
