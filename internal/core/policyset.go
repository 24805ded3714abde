package core

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"ramsis/internal/dist"
)

// PolicySet holds MS policies specialized per query load (§3.1.3) and
// implements the online selection rule of §3.2.2: use the lowest-load policy
// that meets the anticipated load, generating a new one on demand when the
// anticipated load exceeds every pre-computed policy.
type PolicySet struct {
	mu         sync.Mutex
	base       Config
	arrival    func(load float64) dist.Process
	policies   []*Policy // sorted by ascending Load
	generating map[float64]bool
}

// OnDemandRung is the granularity on-demand loads are rounded up to, so a
// stream of slightly different anticipated loads does not generate a policy
// per observation.
const OnDemandRung = 100.0

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

// generate builds one policy (no locking).
func (ps *PolicySet) generate(load float64) (*Policy, error) {
	cfg := ps.base
	cfg.Arrival = ps.arrival(load)
	return Generate(cfg)
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
// directory) into the set.
func (ps *PolicySet) Insert(p *Policy) {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	ps.insert(p)
}

// Clone returns a copy-on-write duplicate: the ladder slice is copied but
// the (immutable) policy objects are shared. The adaptation layer publishes
// whole sets behind an atomic pointer, so a set is never mutated after
// publication — readers get a consistent ladder without taking its lock.
func (ps *PolicySet) Clone() *PolicySet {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	return &PolicySet{
		base:     ps.base,
		arrival:  ps.arrival,
		policies: append([]*Policy(nil), ps.policies...),
	}
}

// Best returns the policy that should serve an anticipated load without
// ever generating: the lowest-load policy meeting the load (§3.2.2), or the
// highest-load policy available when the load exceeds the whole ladder. It
// returns nil only for an empty set. Generation is the adaptation layer's
// job; the decision path must stay lookup-only.
func (ps *PolicySet) Best(load float64) *Policy {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	p, _ := ps.lookup(load)
	return p
}

// lookup is §3.2.2's selection rule (caller holds the lock): the lowest-load
// policy meeting load, with covered true; past the ladder, the highest-load
// policy with covered false; nil for an empty set.
func (ps *PolicySet) lookup(load float64) (p *Policy, covered bool) {
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

var errEmptySet = errors.New("core: empty policy set")

// GenerateLoads pre-computes policies for the given loads in parallel.
func (ps *PolicySet) GenerateLoads(loads []float64) error {
	pols := make([]*Policy, len(loads))
	errs := make([]error, len(loads))
	parallelFor(len(loads), func(i int) {
		pols[i], errs[i] = ps.generate(loads[i])
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

// PolicyFor returns the policy for an anticipated query load: the
// lowest-load policy whose load meets it. If the load exceeds every
// pre-computed policy, a new one is generated (rounded up to the next
// OnDemandRung) and cached (§3.2.2).
func (ps *PolicySet) PolicyFor(load float64) (*Policy, error) {
	ps.mu.Lock()
	p, covered := ps.lookup(load)
	ps.mu.Unlock()
	if p == nil {
		return nil, errEmptySet
	}
	if covered {
		return p, nil
	}
	p, err := ps.generate(roundUpRung(load))
	if err != nil {
		return nil, err
	}
	ps.mu.Lock()
	ps.insert(p)
	ps.mu.Unlock()
	return p, nil
}

// PolicyForNow is the non-blocking variant used by real-time serving: when
// the anticipated load exceeds the ladder it immediately returns the
// highest-load policy available and generates the missing policy in the
// background, so serving never stalls behind policy generation.
func (ps *PolicySet) PolicyForNow(load float64) (*Policy, error) {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	p, covered := ps.lookup(load)
	if p == nil {
		return nil, errEmptySet
	}
	if covered {
		return p, nil
	}
	rung := roundUpRung(load)
	if ps.generating == nil {
		ps.generating = map[float64]bool{}
	}
	if !ps.generating[rung] {
		ps.generating[rung] = true
		go func() {
			p, err := ps.generate(rung)
			ps.mu.Lock()
			defer ps.mu.Unlock()
			delete(ps.generating, rung)
			if err == nil {
				ps.insert(p)
			}
		}()
	}
	return p, nil
}

func roundUpRung(load float64) float64 {
	r := float64(int(load/OnDemandRung)) * OnDemandRung
	if r < load {
		r += OnDemandRung
	}
	if r <= 0 {
		r = OnDemandRung
	}
	return r
}
