// Package tenant is the multi-tenant serving plane's control data: a
// registry of tenants with per-tenant SLO classes, traffic weights, and
// contracted rates (config-file loadable, atomically hot-reloadable), a
// weighted-fair admission layer over internal/admit, a sharding tier that
// routes tenants across frontend shards, and multi-tenant workload
// generation for the simulator.
//
// Everything single-tenant in the repository becomes the N=1 special case:
// one tenant, weight 1, the engine-wide SLO. The fairness model follows
// T-TAMER's accuracy/latency/fairness framing (PAPERS.md): each tenant's
// weight buys a proportional share of the plane's admission capacity, an
// over-share tenant's excess is shed before any compliant tenant's traffic
// is touched, and unused capacity is work-conservingly lent out.
package tenant

import (
	"encoding/json"
	"fmt"
	"os"
	"sync/atomic"
)

// DefaultName is the tenant unlabeled traffic is attributed to when the
// registry defines it.
const DefaultName = "default"

// Tenant is one application tenant: its SLO class, fair-share weight, and
// contracted arrival rate.
type Tenant struct {
	// Name identifies the tenant in routing, metrics labels, and /stats.
	Name string `json:"name"`
	// Class is the SLO class label (e.g. "interactive", "standard",
	// "batch"); informational, surfaced in /stats and metrics.
	Class string `json:"class,omitempty"`
	// SLOMS is the tenant's response-latency SLO in milliseconds.
	SLOMS float64 `json:"sloMs"`
	// Weight is the tenant's fair-share weight: admission capacity is
	// split proportionally to weights (must be positive).
	Weight float64 `json:"weight"`
	// RateQPS is the tenant's contracted (solved-for) arrival rate. It
	// seeds per-tenant policy generation and the sim workload generator.
	RateQPS float64 `json:"rateQps"`
	// BurstSec sizes the tenant's admission token bucket in seconds of
	// fair-share rate (default DefaultBurstSec); larger absorbs burstier
	// compliant traffic without borrowing.
	BurstSec float64 `json:"burstSec,omitempty"`
}

// SLO returns the tenant's latency SLO in seconds.
func (t Tenant) SLO() float64 { return t.SLOMS / 1000 }

// Validate checks one tenant in isolation.
func (t Tenant) Validate() error {
	if t.Name == "" {
		return fmt.Errorf("tenant: empty name")
	}
	if t.SLOMS <= 0 {
		return fmt.Errorf("tenant %s: sloMs must be positive, got %v", t.Name, t.SLOMS)
	}
	if t.Weight <= 0 {
		return fmt.Errorf("tenant %s: weight must be positive, got %v", t.Name, t.Weight)
	}
	if t.RateQPS <= 0 {
		return fmt.Errorf("tenant %s: rateQps must be positive, got %v", t.Name, t.RateQPS)
	}
	if t.BurstSec < 0 {
		return fmt.Errorf("tenant %s: burstSec must be non-negative, got %v", t.Name, t.BurstSec)
	}
	return nil
}

// Validate checks a tenant set: each tenant valid, names unique.
func Validate(ts []Tenant) error {
	if len(ts) == 0 {
		return fmt.Errorf("tenant: empty tenant set")
	}
	seen := make(map[string]bool, len(ts))
	for _, t := range ts {
		if err := t.Validate(); err != nil {
			return err
		}
		if seen[t.Name] {
			return fmt.Errorf("tenant %s: duplicate name", t.Name)
		}
		seen[t.Name] = true
	}
	return nil
}

// Parse decodes a tenant config file: either a bare JSON array of tenants
// or an object {"tenants": [...]}.
func Parse(data []byte) ([]Tenant, error) {
	var wrapped struct {
		Tenants []Tenant `json:"tenants"`
	}
	if err := json.Unmarshal(data, &wrapped); err == nil && len(wrapped.Tenants) > 0 {
		return wrapped.Tenants, Validate(wrapped.Tenants)
	}
	var ts []Tenant
	if err := json.Unmarshal(data, &ts); err != nil {
		return nil, fmt.Errorf("tenant: decode config: %w", err)
	}
	return ts, Validate(ts)
}

// snapshot is one immutable registry generation; lookups read it through a
// single atomic pointer load, so reloads never block the admission path.
type snapshot struct {
	list    []Tenant
	byName  map[string]int
	version uint64
	weight  float64 // sum of weights
	rate    float64 // sum of contracted rates
}

// Registry holds the live tenant set behind an atomic pointer:
// Lookup/All/Version are lock-free reads of the current generation, and
// Reload swaps in a validated replacement without disturbing readers
// mid-decision — the sharded frontends read it on every arrival while the
// operator reloads config.
type Registry struct {
	snap atomic.Pointer[snapshot]
}

func makeSnapshot(ts []Tenant, version uint64) *snapshot {
	s := &snapshot{
		list:    append([]Tenant(nil), ts...),
		byName:  make(map[string]int, len(ts)),
		version: version,
	}
	for i, t := range s.list {
		s.byName[t.Name] = i
		s.weight += t.Weight
		s.rate += t.RateQPS
	}
	return s
}

// NewRegistry validates the tenant set and builds a registry over it.
func NewRegistry(ts []Tenant) (*Registry, error) {
	if err := Validate(ts); err != nil {
		return nil, err
	}
	r := &Registry{}
	r.snap.Store(makeSnapshot(ts, 1))
	return r, nil
}

// LoadFile reads, parses, and validates a tenant config file into a
// registry.
func LoadFile(path string) (*Registry, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	ts, err := Parse(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return NewRegistry(ts)
}

// Lookup returns the tenant by name from the current generation.
func (r *Registry) Lookup(name string) (Tenant, bool) {
	s := r.snap.Load()
	i, ok := s.byName[name]
	if !ok {
		return Tenant{}, false
	}
	return s.list[i], true
}

// Resolve maps a request's tenant label to a registered tenant: an empty
// label falls back to DefaultName when it is registered.
func (r *Registry) Resolve(name string) (Tenant, bool) {
	if name == "" {
		name = DefaultName
	}
	return r.Lookup(name)
}

// All returns the current generation's tenants in config order. The
// returned slice is shared and must not be mutated.
func (r *Registry) All() []Tenant { return r.snap.Load().list }

// Version returns the current generation number; it increments on every
// successful Reload, so per-tenant caches know when to rebuild.
func (r *Registry) Version() uint64 { return r.snap.Load().version }

// TotalRate returns the sum of contracted tenant rates in QPS — the
// plane's default admission capacity.
func (r *Registry) TotalRate() float64 { return r.snap.Load().rate }

// Reload validates and atomically publishes a replacement tenant set.
// Readers mid-decision keep the generation they loaded; the next arrival
// sees the new one.
func (r *Registry) Reload(ts []Tenant) error {
	if err := Validate(ts); err != nil {
		return err
	}
	for {
		old := r.snap.Load()
		next := makeSnapshot(ts, old.version+1)
		if r.snap.CompareAndSwap(old, next) {
			return nil
		}
	}
}

// ReloadFile re-reads a config file and publishes it; on any error the
// previous tenant set stays live.
func (r *Registry) ReloadFile(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	ts, err := Parse(data)
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return r.Reload(ts)
}
