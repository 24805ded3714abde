package adapt

import (
	"testing"

	"ramsis/internal/core"
	"ramsis/internal/dist"
	"ramsis/internal/profile"
)

func key(bucket float64) Key { return Key{Bucket: bucket, SLO: 0.150, ConfigHash: 1} }

func TestCacheLRUEviction(t *testing.T) {
	c := NewCache(2)
	a, b, d := &core.Policy{Load: 1}, &core.Policy{Load: 2}, &core.Policy{Load: 3}
	c.Put(key(1), a)
	c.Put(key(2), b)
	// Touch 1 so 2 becomes least recently used.
	if got, ok := c.Get(key(1)); !ok || got != a {
		t.Fatal("missing freshly inserted entry")
	}
	c.Put(key(3), d)
	if c.Len() != 2 {
		t.Fatalf("len = %d, want 2", c.Len())
	}
	if _, ok := c.Get(key(2)); ok {
		t.Error("least recently used entry survived eviction")
	}
	if _, ok := c.Get(key(1)); !ok {
		t.Error("recently used entry was evicted")
	}
	if got, ok := c.Get(key(3)); !ok || got != d {
		t.Error("newest entry missing")
	}
}

func TestCachePutRefreshes(t *testing.T) {
	c := NewCache(2)
	old, nw := &core.Policy{Load: 1}, &core.Policy{Load: 1.5}
	c.Put(key(1), old)
	c.Put(key(2), &core.Policy{Load: 2})
	c.Put(key(1), nw) // refresh value and recency
	c.Put(key(3), &core.Policy{Load: 3})
	if got, ok := c.Get(key(1)); !ok || got != nw {
		t.Error("refreshed entry lost or stale")
	}
	if _, ok := c.Get(key(2)); ok {
		t.Error("expected key 2 evicted after key 1 was refreshed")
	}
}

func TestCacheMinimumCapacity(t *testing.T) {
	c := NewCache(0)
	c.Put(key(1), &core.Policy{Load: 1})
	c.Put(key(2), &core.Policy{Load: 2})
	if c.Len() != 1 {
		t.Fatalf("len = %d, want 1 (capacity clamps to 1)", c.Len())
	}
}

func TestConfigHashIgnoresArrivalOnly(t *testing.T) {
	base := core.Config{
		Models:  profile.AblationImageSet(),
		SLO:     0.150,
		Workers: 4,
		Arrival: dist.NewPoisson(100),
		D:       20,
	}
	h := ConfigHash(base)

	// The arrival rate is the cache key's Bucket dimension, not part of the
	// hash: two buckets of the same problem must share a hash.
	other := base
	other.Arrival = dist.NewPoisson(500)
	if ConfigHash(other) != h {
		t.Error("hash changed with arrival rate; buckets of one problem must share it")
	}

	// Everything that shapes the MDP must change the hash, and no two such
	// changes may collide with each other.
	seen := map[uint64]string{h: "base"}
	for name, mutate := range map[string]func(*core.Config){
		"workers":   func(c *core.Config) { c.Workers = 8 },
		"D":         func(c *core.Config) { c.D = 50 },
		"maxQueue":  func(c *core.Config) { c.MaxQueue = 8 },
		"models":    func(c *core.Config) { c.Models = profile.ImageSet() },
		"batching":  func(c *core.Config) { c.Batching = core.VariableBatching },
		"disc":      func(c *core.Config) { c.Disc = core.ModelBased },
		"balancing": func(c *core.Config) { c.Balancing = core.ShortestQueueFirst },
		"gamma":     func(c *core.Config) { c.Gamma = 0.9 },
		"probFloor": func(c *core.Config) { c.ProbFloor = 1e-8 },
		"fineCells": func(c *core.Config) { c.FineCells = 128 },
		"pruning":   func(c *core.Config) { c.NoParetoPruning = true },
	} {
		mut := base
		mutate(&mut)
		got := ConfigHash(mut)
		if other, ok := seen[got]; ok {
			t.Errorf("%s change hashes like %s", name, other)
		}
		seen[got] = name
	}
}
