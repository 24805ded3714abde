// Package lb is the load-balancing subsystem: a pluggable Balancer (the
// dispatch policy the §3.2.1 central queue applies per arrival), shared by
// the discrete-event simulator and the serving plane, plus the plane's
// HealthTracker, which keeps a health mark per worker from the probes its
// caller supplies and the dispatch outcomes the caller reports, so traffic
// routes around failed workers until they recover.
//
// The paper instantiates round-robin (§3.2.1) and join-shortest-queue
// (Appendix I); power-of-two choices is the standard low-overhead
// approximation of JSQ. The offline MDP in internal/core derives its
// per-worker arrival split from the same strategy choice
// (core.RoundRobin / core.ShortestQueueFirst / core.PowerOfTwoChoices), so
// policies stay matched to the online balancer.
package lb

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
)

// Balancer picks the worker an arriving query is routed to. queueLens holds
// every worker's current queue length; healthy marks which workers are
// accepting traffic (nil means all healthy). Implementations must avoid
// unhealthy workers whenever at least one healthy worker exists; when no
// worker is healthy they fall back to considering all of them (serving
// degraded beats dropping on the floor). Pick returns -1 only for empty
// queueLens.
//
// Implementations are safe for concurrent use: the frontend routes from
// concurrent HTTP handlers.
type Balancer interface {
	Pick(queueLens []int, healthy []bool) int
	// Name returns the strategy's canonical flag value (rr, jsq, p2c).
	Name() string
}

// usable reports whether worker w may receive traffic under the health
// mask, treating an all-false or nil mask as all-healthy.
func usable(healthy []bool, w int, anyHealthy bool) bool {
	if healthy == nil || !anyHealthy {
		return true
	}
	return healthy[w]
}

// anyTrue reports whether at least one worker is marked healthy.
func anyTrue(healthy []bool) bool {
	for _, h := range healthy {
		if h {
			return true
		}
	}
	return false
}

// RoundRobin cycles through workers in order, skipping unhealthy ones. It
// is the paper's default balancer (§3.2.1): every K-th arrival lands on the
// same worker, which is exactly the arrival split the round-robin MDP
// assumes.
type RoundRobin struct {
	next atomic.Uint64
}

// NewRoundRobin returns a round-robin balancer starting at worker 0.
func NewRoundRobin() *RoundRobin { return &RoundRobin{} }

// Name returns "rr".
func (*RoundRobin) Name() string { return "rr" }

// Pick returns the next worker in rotation, advancing past unhealthy ones.
// Skipped rotation slots are consumed, so the healthy workers keep an even
// share of arrivals whatever the mask looks like.
func (b *RoundRobin) Pick(queueLens []int, healthy []bool) int {
	k := len(queueLens)
	if k == 0 {
		return -1
	}
	any := anyTrue(healthy)
	for i := 0; i < k; i++ {
		w := int((b.next.Add(1) - 1) % uint64(k))
		if usable(healthy, w, any) {
			return w
		}
	}
	return int((b.next.Add(1) - 1) % uint64(k))
}

// JoinShortestQueue routes every arrival to the healthy worker with the
// fewest queued queries (Appendix I), breaking ties by lowest index — the
// same deterministic rule the simulator's original SQF loop applied, so
// sim results stay reproducible.
type JoinShortestQueue struct{}

// NewJoinShortestQueue returns a JSQ balancer.
func NewJoinShortestQueue() *JoinShortestQueue { return &JoinShortestQueue{} }

// Name returns "jsq".
func (*JoinShortestQueue) Name() string { return "jsq" }

// Pick returns the healthy worker with the shortest queue.
func (*JoinShortestQueue) Pick(queueLens []int, healthy []bool) int {
	k := len(queueLens)
	if k == 0 {
		return -1
	}
	any := anyTrue(healthy)
	best := -1
	for w := 0; w < k; w++ {
		if !usable(healthy, w, any) {
			continue
		}
		if best < 0 || queueLens[w] < queueLens[best] {
			best = w
		}
	}
	if best < 0 {
		best = 0
	}
	return best
}

// PowerOfTwoChoices samples two distinct healthy workers uniformly at
// random and routes to the one with the shorter queue (first sample wins
// ties). It achieves most of JSQ's doubly-exponential queue-tail benefit
// at O(1) cost per arrival, which matters once the cluster is large enough
// that the JSQ scan shows up in the routing hot path.
type PowerOfTwoChoices struct {
	mu  sync.Mutex
	rng *rand.Rand
}

// NewPowerOfTwoChoices returns a P2C balancer with a seeded RNG so runs
// are reproducible.
func NewPowerOfTwoChoices(seed int64) *PowerOfTwoChoices {
	return &PowerOfTwoChoices{rng: rand.New(rand.NewSource(seed))}
}

// Name returns "p2c".
func (*PowerOfTwoChoices) Name() string { return "p2c" }

// Pick samples two healthy workers and returns the shorter-queued one.
func (b *PowerOfTwoChoices) Pick(queueLens []int, healthy []bool) int {
	k := len(queueLens)
	if k == 0 {
		return -1
	}
	any := anyTrue(healthy)
	// Collect candidates; small k keeps this cheap, and the benchmark
	// shows the two rng draws dominate.
	b.mu.Lock()
	defer b.mu.Unlock()
	first, second := -1, -1
	cand := 0
	for w := 0; w < k; w++ {
		if !usable(healthy, w, any) {
			continue
		}
		cand++
		// Reservoir-style: choose two distinct uniform candidates in one
		// pass without allocating the candidate list.
		switch {
		case cand == 1:
			first = w
		case cand == 2:
			second = w
			if b.rng.Intn(2) == 1 {
				first, second = second, first
			}
		default:
			j := b.rng.Intn(cand)
			if j == 0 {
				first = w
			} else if j == 1 {
				second = w
			}
		}
	}
	if first < 0 {
		return 0
	}
	if second < 0 {
		return first
	}
	if queueLens[second] < queueLens[first] {
		return second
	}
	return first
}

// New builds a balancer from a -lb flag value. Accepted spellings:
// "rr"/"round-robin", "jsq"/"shortest-queue", "p2c"/"power-of-two". The
// seed only affects p2c.
func New(strategy string, seed int64) (Balancer, error) {
	switch strategy {
	case "", "rr", "round-robin", "roundrobin":
		return NewRoundRobin(), nil
	case "jsq", "shortest-queue", "sqf":
		return NewJoinShortestQueue(), nil
	case "p2c", "power-of-two", "poweroftwo":
		return NewPowerOfTwoChoices(seed), nil
	}
	return nil, fmt.Errorf("lb: unknown strategy %q (want rr, jsq, or p2c)", strategy)
}
