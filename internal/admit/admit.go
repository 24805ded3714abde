// Package admit is the overload-protection subsystem: deadline-aware
// admission control, bounded-queue shedding, degraded-mode serving, and a
// retry budget for dispatch failover.
//
// RAMSIS's MDP policies maximize accuracy subject to a latency SLO, but the
// formulation assumes the offered load matches the rate the policy was
// solved for. When a burst exceeds what even the fastest model can serve,
// queues grow without bound and every query — not just the excess — blows
// the SLO. Admission control bounds that failure: queries whose deadline is
// already unmeetable (or that would push the queue past its bound) are shed
// at arrival, so the queries that are admitted still meet their deadlines.
// The metric that admission optimizes is goodput — the fraction of all
// offered queries answered within the SLO — rather than the violation rate
// over the (shrinking) admitted set.
//
// Three admitters ship: None (admit everything, the historical behaviour),
// Deadline (estimate the candidate's queue wait from the profiled
// latencies of already-enqueued work plus its own best-case inference time;
// shed it if arrival + SLO·margin is unmeetable even under optimistic
// assumptions), and Cap (bounded queue, the paper's N_w bound enforced
// online). Deadline never sheds a query that an ideally scheduled system
// could serve: the wait estimate assumes every worker drains the backlog at
// the fastest model's best profiled throughput.
package admit

import (
	"fmt"
	"math"
	"strings"
)

// Estimator converts a queue backlog into time. core.WaitEstimator is the
// production implementation (derived from the profiled latency tables); the
// interface keeps this package free of core's solver dependencies.
type Estimator interface {
	// Wait returns the estimated seconds until a query arriving behind
	// `outstanding` queued or in-flight queries begins service.
	Wait(outstanding int) float64
	// Service returns the candidate's own best-case inference seconds.
	Service() float64
}

// Request describes one arriving query to an admitter.
type Request struct {
	// Now is the arrival time in modeled seconds.
	Now float64
	// Outstanding counts the queries already queued or in flight that the
	// candidate would wait behind, summed across workers.
	Outstanding int
}

// Verdict is an admission decision.
type Verdict struct {
	Admit bool
	// RetryAfter is the suggested client back-off in seconds (shed
	// verdicts only): the estimated time for the backlog to drain enough
	// that a retry would be admitted, assuming no new arrivals.
	RetryAfter float64
	// EstWait is the estimated queue wait used for the decision; the
	// degrader consumes it as its pressure signal.
	EstWait float64
	// Reason classifies the outcome: why a query was shed, and for the
	// tenant-aware admitter also how one was admitted.
	Reason Reason
}

// Reason classifies an admission outcome.
type Reason string

const (
	// ReasonDeadline marks a query shed by Deadline: its deadline is
	// unmeetable even in the best case.
	ReasonDeadline Reason = "deadline"
	// ReasonQueueFull marks a query shed by Cap: the backlog is at its bound.
	ReasonQueueFull Reason = "queue_full"
	// ReasonFair marks a query admitted within its tenant's fair share.
	ReasonFair Reason = "fair"
	// ReasonBorrowed marks a query over its tenant's fair share admitted
	// from the plane's idle headroom.
	ReasonBorrowed Reason = "borrowed"
	// ReasonOverShare marks a query shed because its tenant exhausted its
	// fair share and the plane had no headroom to lend.
	ReasonOverShare Reason = "over_share"
	// ReasonInner marks a query shed by the tenant-aware admitter's inner
	// admitter (deadline unmeetable or queue cap) despite being within fair
	// share.
	ReasonInner Reason = "inner"
	// ReasonUnknown marks a query shed because its tenant is not
	// registered.
	ReasonUnknown Reason = "unknown_tenant"
)

// Admitter decides, per arriving query, whether to enqueue or shed it. It
// must be safe for concurrent use: the serve frontend calls it from every
// request handler.
type Admitter interface {
	Admit(r Request) Verdict
	Name() string
}

// None admits everything — the behaviour before admission control existed.
type None struct{}

// Name identifies the policy in flags and metric labels.
func (None) Name() string { return "none" }

// Admit always admits.
func (None) Admit(Request) Verdict { return Verdict{Admit: true} }

// Deadline sheds queries whose deadline arrival + SLO·Margin is already
// unmeetable: the estimated queue wait plus the candidate's own best-case
// inference time exceeds the deadline budget. The estimate is deliberately
// optimistic (fastest model, best profiled throughput, all workers
// draining), so a shed query was hopeless even in the best case — the
// admitter never sheds work an ideal schedule could have served.
type Deadline struct {
	// SLO is the latency objective in seconds.
	SLO float64
	// Margin scales the SLO into the admission deadline (default 1.0).
	// Below 1 sheds earlier, reserving headroom for dispatch overhead and
	// latency noise; above 1 tolerates bounded lateness.
	Margin float64
	// Est estimates queue wait and service time from the profiles.
	Est Estimator
}

// Name identifies the policy in flags and metric labels.
func (Deadline) Name() string { return "deadline" }

// Admit applies the deadline test.
func (d Deadline) Admit(r Request) Verdict {
	margin := d.Margin
	if margin <= 0 {
		margin = 1
	}
	wait := d.Est.Wait(r.Outstanding)
	budget := d.SLO*margin - d.Est.Service()
	if wait <= budget {
		return Verdict{Admit: true, EstWait: wait}
	}
	return Verdict{EstWait: wait, RetryAfter: wait - budget, Reason: ReasonDeadline}
}

// Cap sheds queries once the outstanding backlog reaches Limit, enforcing
// online the queue bound N_w the MDP state space assumes offline (states
// beyond N_w collapse into the overflow state, where the policy's
// guarantees no longer hold). One knob — core.Config.MaxQueue — bounds
// both.
type Cap struct {
	// Limit is the maximum admitted backlog (queued + in flight), summed
	// across workers.
	Limit int
	// Est, when set, converts the excess backlog into a Retry-After hint;
	// without it shed verdicts suggest one second.
	Est Estimator
}

// Name identifies the policy in flags and metric labels.
func (Cap) Name() string { return "cap" }

// Admit applies the queue bound.
func (c Cap) Admit(r Request) Verdict {
	var wait float64
	if c.Est != nil {
		wait = c.Est.Wait(r.Outstanding)
	}
	if r.Outstanding < c.Limit {
		return Verdict{Admit: true, EstWait: wait}
	}
	retry := 1.0
	if c.Est != nil {
		// Time for the backlog to drain below the bound, no new arrivals.
		if d := c.Est.Wait(r.Outstanding-c.Limit+1) - c.Est.Wait(0); d > 0 {
			retry = d
		}
	}
	return Verdict{EstWait: wait, RetryAfter: retry, Reason: ReasonQueueFull}
}

// Policies lists the admitter names New accepts.
func Policies() []string { return []string{"none", "deadline", "cap"} }

// New builds an admitter by flag name: "none", "deadline", or "cap".
// slo and margin parameterize the deadline test; capLimit bounds the cap
// admitter (it must be positive when name is "cap"). est supplies the
// wait estimation for both deadline shedding and Retry-After hints.
func New(name string, slo, margin float64, capLimit int, est Estimator) (Admitter, error) {
	switch strings.ToLower(name) {
	case "", "none":
		return None{}, nil
	case "deadline":
		if est == nil {
			return nil, fmt.Errorf("admit: deadline admitter needs a wait estimator")
		}
		return Deadline{SLO: slo, Margin: margin, Est: est}, nil
	case "cap":
		if capLimit < 1 {
			return nil, fmt.Errorf("admit: cap admitter needs a positive queue bound, got %d", capLimit)
		}
		return Cap{Limit: capLimit, Est: est}, nil
	}
	return nil, fmt.Errorf("admit: unknown admitter %q (want one of %v)", name, Policies())
}

// RetryAfterSeconds rounds a Retry-After hint up to the whole seconds an
// HTTP Retry-After header carries, never below one.
func RetryAfterSeconds(retryAfter float64) int {
	s := int(math.Ceil(retryAfter))
	if s < 1 {
		s = 1
	}
	return s
}
