package adapt

import (
	"container/list"
	"encoding/binary"
	"hash/fnv"
	"math"
	"sync"

	"ramsis/internal/core"
)

// Key identifies one solved policy in the cache: the rate bucket it was
// solved for, the SLO, and a fingerprint of everything else that shapes the
// MDP (worker profiles, knob settings). Returning to a previously seen rate
// under the same problem is a lookup, not a solve; changing the SLO or the
// worker's model set can never alias.
type Key struct {
	Bucket     float64
	SLO        float64
	ConfigHash uint64
}

// ConfigHash fingerprints the generation problem minus the arrival rate:
// the worker's profile set (task, model names, accuracies, latency tables)
// and every MDP-shaping knob. Two configs with equal hashes solve the same
// MDP family, parameterized only by rate. The solver is not a knob: every
// method reaches the same fixed point and New fixes the one re-solves run.
func ConfigHash(cfg core.Config) uint64 {
	h := fnv.New64a()
	buf := make([]byte, 8)
	writeF := func(v float64) {
		binary.LittleEndian.PutUint64(buf, math.Float64bits(v))
		h.Write(buf)
	}
	writeI := func(v int) {
		binary.LittleEndian.PutUint64(buf, uint64(int64(v)))
		h.Write(buf)
	}
	h.Write([]byte(cfg.Models.Task))
	for _, p := range cfg.Models.Profiles {
		h.Write([]byte(p.Name))
		writeF(p.Accuracy)
		for _, l := range p.Latency {
			writeF(l)
		}
	}
	writeI(cfg.Workers)
	writeI(int(cfg.Batching))
	writeI(int(cfg.Disc))
	writeI(cfg.D)
	writeI(cfg.MaxQueue)
	writeI(int(cfg.Balancing))
	writeF(cfg.Gamma)
	writeF(cfg.ProbFloor)
	writeI(cfg.FineCells)
	if cfg.NoParetoPruning {
		writeI(1)
	}
	return h.Sum64()
}

// Cache is a thread-safe LRU of solved policies. Capacity bounds memory:
// each entry is a full per-worker policy (choices for every queue state),
// and a day of production traffic revisits a handful of rate buckets, so a
// small cache captures the diurnal cycle.
type Cache struct {
	mu    sync.Mutex
	cap   int
	ll    *list.List // front = most recently used
	items map[Key]*list.Element
}

type cacheEntry struct {
	key Key
	pol *core.Policy
}

// NewCache returns an LRU policy cache holding at most capacity entries
// (minimum 1).
func NewCache(capacity int) *Cache {
	if capacity < 1 {
		capacity = 1
	}
	return &Cache{cap: capacity, ll: list.New(), items: make(map[Key]*list.Element)}
}

// Get returns the cached policy for the key, marking it most recently used.
func (c *Cache) Get(k Key) (*core.Policy, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[k]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).pol, true
}

// Put inserts (or refreshes) a policy, evicting the least recently used
// entry when over capacity.
func (c *Cache) Put(k Key, pol *core.Policy) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[k]; ok {
		el.Value.(*cacheEntry).pol = pol
		c.ll.MoveToFront(el)
		return
	}
	c.items[k] = c.ll.PushFront(&cacheEntry{key: k, pol: pol})
	for c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*cacheEntry).key)
	}
}

// Nearest returns the cached policy whose key shares k's SLO and config
// hash with the rate bucket closest to k.Bucket — the warm-start donor for
// a re-solve at k.Bucket (same state space, only the arrival differs, so
// its converged value vector seeds the new solve). Ties prefer the lower
// bucket for determinism. Recency is not updated: peeking for a warm start
// must not protect an entry from eviction the way serving from it does.
func (c *Cache) Nearest(k Key) (*core.Policy, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var best *core.Policy
	bestDist, bestBucket := math.Inf(1), math.Inf(1)
	for key, el := range c.items {
		if key.SLO != k.SLO || key.ConfigHash != k.ConfigHash {
			continue
		}
		d := math.Abs(key.Bucket - k.Bucket)
		if d < bestDist || (d == bestDist && key.Bucket < bestBucket) {
			bestDist, bestBucket = d, key.Bucket
			best = el.Value.(*cacheEntry).pol
		}
	}
	return best, best != nil
}

// Len returns the number of cached policies.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}
