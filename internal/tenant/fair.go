package tenant

import (
	"sync"

	"ramsis/internal/admit"
)

// DefaultBurstSec is the default token-bucket depth in seconds of
// fair-share rate. Two seconds absorbs Poisson jitter at any realistic
// rate (the standard deviation of arrivals over the burst window grows as
// √rate while the bucket grows linearly), so a compliant tenant virtually
// never dips into borrowing.
const DefaultBurstSec = 2

// FairConfig parameterizes weighted-fair admission.
type FairConfig struct {
	// CapacityQPS is the plane's admission capacity: the aggregate rate
	// the deployment was provisioned (policies solved) for. Each tenant's
	// fair share is CapacityQPS × weight/Σweights. Zero defaults to the
	// registry's total contracted rate.
	CapacityQPS float64
	// BurstSec is the default bucket depth in seconds of fair-share rate
	// for tenants that do not set their own (default DefaultBurstSec).
	BurstSec float64
	// NoBorrow disables work-conserving borrowing: over-share traffic is
	// always shed, even when the plane has idle capacity. The default
	// (borrowing on) sheds over-share traffic only when the plane's
	// aggregate admission bucket is empty — strict weighted fairness under
	// contention, work conservation otherwise.
	NoBorrow bool
	// BorrowReserve reserves queue headroom for within-share traffic: a
	// borrow attempt is screened by the inner admitter as if BorrowReserve
	// additional queries were already outstanding, so borrowers can fill a
	// capped queue only up to Limit−BorrowReserve slots. Without a reserve,
	// an overloading tenant's borrowed backlog occupies the whole queue
	// whenever real drain lags modeled capacity, and compliant tenants —
	// despite holding admission tokens — lose the race for freed slots.
	BorrowReserve int
}

// bucket is one tenant's token bucket. Tokens refill at the tenant's
// fair-share rate and cap at burst; an admit spends one token.
type bucket struct {
	rate   float64 // fair-share QPS
	burst  float64 // max tokens
	tokens float64
	last   float64 // modeled seconds of the last refill
}

func (b *bucket) refill(now float64) {
	if now > b.last {
		b.tokens += (now - b.last) * b.rate
		if b.tokens > b.burst {
			b.tokens = b.burst
		}
		b.last = now
	}
}

// FairAdmitter layers deficit-free weighted fairness over an inner
// admit.Admitter (PR 5's deadline/cap gates): each tenant owns a token
// bucket refilled at its weight-proportional share of the plane's
// capacity, and a plane-wide bucket refilled at the full capacity meters
// work-conserving borrowing. An over-share tenant is shed the moment the
// plane bucket empties — before any within-share tenant is touched — which
// is what keeps a compliant tenant's goodput intact while a neighbor
// offers 4× its contract. Starvation-freedom is structural: every
// positive-weight tenant's own bucket refills regardless of what the
// others offer.
//
// All decisions run under one mutex; the critical section is a handful of
// float operations, far below the per-arrival cost of routing. Time is the
// caller's modeled clock (admit.Request.Now), so the same admitter runs
// unchanged under the simulator and the live frontends.
type FairAdmitter struct {
	inner admit.Admitter
	reg   *Registry
	cfg   FairConfig

	mu      sync.Mutex
	version uint64
	plane   bucket // aggregate headroom meter for borrowing
	buckets map[string]*bucket
}

// NewFairAdmitter builds the weighted-fair layer over inner (nil inner
// admits everything within the bucket discipline).
func NewFairAdmitter(reg *Registry, inner admit.Admitter, cfg FairConfig) *FairAdmitter {
	if inner == nil {
		inner = admit.None{}
	}
	if cfg.BurstSec <= 0 {
		cfg.BurstSec = DefaultBurstSec
	}
	f := &FairAdmitter{inner: inner, reg: reg, cfg: cfg, buckets: map[string]*bucket{}}
	f.rebuild(0)
	return f
}

// Name identifies the layered policy in metric labels and flags.
func (f *FairAdmitter) Name() string { return "fair+" + f.inner.Name() }

// capacity resolves the effective plane capacity for the current registry
// generation.
func (f *FairAdmitter) capacity() float64 {
	if f.cfg.CapacityQPS > 0 {
		return f.cfg.CapacityQPS
	}
	return f.reg.TotalRate()
}

// rebuild resyncs buckets with the registry generation at modeled time
// now: surviving tenants keep their token level (clamped to the new
// burst), new tenants start full so a reload never sheds their first
// burst, and departed tenants are dropped. Callers hold f.mu.
func (f *FairAdmitter) rebuild(now float64) {
	snap := f.reg.snap.Load()
	cap := f.capacity()
	next := make(map[string]*bucket, len(snap.list))
	for _, t := range snap.list {
		share := cap * t.Weight / snap.weight
		burstSec := t.BurstSec
		if burstSec <= 0 {
			burstSec = f.cfg.BurstSec
		}
		b := &bucket{rate: share, burst: share * burstSec, last: now}
		if old, ok := f.buckets[t.Name]; ok {
			old.refill(now)
			b.tokens = old.tokens
			if b.tokens > b.burst {
				b.tokens = b.burst
			}
			b.last = old.last
		} else {
			b.tokens = b.burst
		}
		next[t.Name] = b
	}
	f.buckets = next
	f.plane.rate = cap
	f.plane.burst = cap * f.cfg.BurstSec
	if f.version == 0 {
		f.plane.tokens = f.plane.burst
	} else if f.plane.tokens > f.plane.burst {
		f.plane.tokens = f.plane.burst
	}
	f.version = snap.version
}

// Admit decides one arrival for the named tenant (empty name resolves to
// DefaultName when registered). The verdict's Reason says how: within the
// fair share, borrowed from the plane's headroom, or shed over share, by
// the inner admitter, or for an unknown tenant.
func (f *FairAdmitter) Admit(name string, r admit.Request) admit.Verdict {
	if name == "" {
		name = DefaultName
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if v := f.reg.Version(); v != f.version {
		f.rebuild(r.Now)
	}
	b, ok := f.buckets[name]
	if !ok {
		return admit.Verdict{RetryAfter: 1, Reason: admit.ReasonUnknown}
	}
	b.refill(r.Now)
	f.plane.refill(r.Now)

	if b.tokens >= 1 {
		v := f.inner.Admit(r)
		if !v.Admit {
			v.Reason = admit.ReasonInner
			return v
		}
		b.tokens--
		// Fair admits are guaranteed, but they consume real capacity: let the
		// plane bucket go negative (debt) rather than clamping, or borrowers
		// would double-spend tokens the fair traffic already used. Debt is
		// bounded by the sum of tenant bursts and repays at the plane's idle
		// surplus rate.
		f.plane.tokens--
		v.Reason = admit.ReasonFair
		return v
	}

	// Over fair share: admit from plane headroom if any remains. The inner
	// check sees BorrowReserve phantom outstanding queries, keeping that
	// many queue slots exclusive to within-share traffic.
	if !f.cfg.NoBorrow && f.plane.tokens >= 1 {
		br := r
		if f.cfg.BorrowReserve > 0 {
			br.Outstanding += f.cfg.BorrowReserve
		}
		v := f.inner.Admit(br)
		if !v.Admit {
			v.Reason = admit.ReasonInner
			return v
		}
		f.plane.tokens--
		v.Reason = admit.ReasonBorrowed
		return v
	}
	retry := 1.0
	if b.rate > 0 {
		retry = (1 - b.tokens) / b.rate
	}
	return admit.Verdict{RetryAfter: retry, Reason: admit.ReasonOverShare}
}

// Share returns the tenant's current fair-share rate in QPS (0 for an
// unknown tenant).
func (f *FairAdmitter) Share(name string) float64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	if b, ok := f.buckets[name]; ok {
		return b.rate
	}
	return 0
}
