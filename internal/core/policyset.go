package core

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"ramsis/internal/dist"
)

// PolicySet holds MS policies specialized per query load (§3.1.3), sorted
// by load: the offline ladder that §3.2.2's online rule reads. Best is the
// rule's lookup. A rung generated online, for a load past the ladder, is
// internal/adapt's job, so a lookup never generates.
type PolicySet struct {
	mu       sync.Mutex
	base     Config
	arrival  func(load float64) dist.Process
	policies []*Policy // sorted by ascending Load
}

// NewPolicySet creates a policy set over the base configuration; each
// policy's arrival distribution is arrivalFor(load), defaulting to Poisson
// as in the paper's experiments.
func NewPolicySet(base Config, arrivalFor func(load float64) dist.Process) *PolicySet {
	if arrivalFor == nil {
		arrivalFor = func(load float64) dist.Process { return dist.NewPoisson(load) }
	}
	return &PolicySet{base: base, arrival: arrivalFor}
}

// Policies returns the policies sorted by ascending load.
func (ps *PolicySet) Policies() []*Policy {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	return append([]*Policy(nil), ps.policies...)
}

// insert adds a policy keeping the slice sorted (caller holds the lock).
func (ps *PolicySet) insert(p *Policy) {
	i := sort.Search(len(ps.policies), func(i int) bool { return ps.policies[i].Load >= p.Load })
	if i < len(ps.policies) && ps.policies[i].Load == p.Load {
		ps.policies[i] = p
		return
	}
	ps.policies = append(ps.policies, nil)
	copy(ps.policies[i+1:], ps.policies[i:])
	ps.policies[i] = p
}

// Insert adds an externally constructed policy (e.g. loaded from a cache
// directory, or re-solved by internal/adapt) into the set. It is the one
// way a ladder changes while it serves: a concurrent Best sees the ladder
// before the insert or after it.
func (ps *PolicySet) Insert(p *Policy) {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	ps.insert(p)
}

// Best is §3.2.2's selection rule: the lowest-load policy meeting an
// anticipated load, with covered true; past the ladder, the highest-load
// policy, with covered false. It returns nil only for an empty set, and it
// never generates.
func (ps *PolicySet) Best(load float64) (p *Policy, covered bool) {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	n := len(ps.policies)
	if n == 0 {
		return nil, false
	}
	i := sort.Search(n, func(i int) bool { return ps.policies[i].Load >= load })
	if i < n {
		return ps.policies[i], true
	}
	return ps.policies[n-1], false
}

// GenerateLoads generates policies for the given loads in parallel and
// inserts them; on any error it inserts none.
func (ps *PolicySet) GenerateLoads(loads []float64) error {
	pols := make([]*Policy, len(loads))
	errs := make([]error, len(loads))
	parallelFor(len(loads), func(i int) {
		cfg := ps.base
		cfg.Arrival = ps.arrival(loads[i])
		pols[i], errs[i] = Generate(cfg)
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	ps.mu.Lock()
	defer ps.mu.Unlock()
	for _, p := range pols {
		ps.insert(p)
	}
	return nil
}

// Refine pre-computes policies between minLoad and maxLoad until every pair
// of load-adjacent policies differs by less than accThreshold in expected
// accuracy (§6 "Query Load Adaptation"; the paper uses 1%, i.e. 0.01).
// maxPolicies bounds the ladder size (0 means 64).
func (ps *PolicySet) Refine(minLoad, maxLoad, accThreshold float64, maxPolicies int) error {
	if maxPolicies == 0 {
		maxPolicies = 64
	}
	if minLoad <= 0 || maxLoad < minLoad {
		return fmt.Errorf("core: invalid refine range [%v, %v]", minLoad, maxLoad)
	}
	if err := ps.GenerateLoads([]float64{minLoad, maxLoad}); err != nil {
		return err
	}
	for {
		ps.mu.Lock()
		var split float64
		for i := 1; i < len(ps.policies); i++ {
			lo, hi := ps.policies[i-1], ps.policies[i]
			if lo.Load < minLoad || hi.Load > maxLoad {
				continue
			}
			gap := lo.ExpectedAccuracy - hi.ExpectedAccuracy
			if gap < 0 {
				gap = -gap
			}
			if gap >= accThreshold && hi.Load-lo.Load > 1 {
				split = (lo.Load + hi.Load) / 2
				break
			}
		}
		n := len(ps.policies)
		ps.mu.Unlock()
		if split == 0 || n >= maxPolicies {
			return nil
		}
		if err := ps.GenerateLoads([]float64{split}); err != nil {
			return err
		}
	}
}

// PolicyFor is Best with an error for an empty set: past the ladder it
// returns the highest-load policy and generates nothing.
func (ps *PolicySet) PolicyFor(load float64) (*Policy, error) {
	p, _ := ps.Best(load)
	if p == nil {
		return nil, errors.New("core: empty policy set")
	}
	return p, nil
}
