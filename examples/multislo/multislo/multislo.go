// Package multislo implements §G: supporting multiple latency SLOs the way
// the paper (and Jellyfish [32]) describes — each worker is assigned a
// latency SLO, a central queue is instantiated per SLO, and workers attach
// to the queue whose SLO matches. Each SLO class therefore runs an
// independent RAMSIS stack (its own policy set sized to its worker share),
// and a class router splits the application mix across the queues.
//
// Since the multi-tenant plane landed, a Class is a view over
// tenant.Tenant: validation, workload generation, and per-class accounting
// run through internal/tenant's registry and labeled-arrival generator, so
// the §G example and the sharded serving plane share one code path.
package multislo

import (
	"fmt"

	"ramsis/internal/core"
	"ramsis/internal/dist"
	"ramsis/internal/monitor"
	"ramsis/internal/profile"
	"ramsis/internal/sim"
	"ramsis/internal/tenant"
	"ramsis/internal/trace"
)

// Class is one latency-SLO application class.
type Class struct {
	// Name labels the class in results.
	Name string
	// SLO is the class's response latency SLO in seconds.
	SLO float64
	// Workers is the number of workers assigned to this class.
	Workers int
	// Share is the fraction of total query traffic belonging to this
	// class; shares must sum to 1.
	Share float64
}

// Tenant renders the class as a tenant contracted for its share of
// totalLoad: the class share doubles as the fair-share weight.
func (c Class) Tenant(totalLoad float64) tenant.Tenant {
	return tenant.Tenant{
		Name:    c.Name,
		Class:   c.Name,
		SLOMS:   c.SLO * 1000,
		Weight:  c.Share,
		RateQPS: c.Share * totalLoad,
	}
}

// System is a multi-SLO deployment: independent per-class RAMSIS stacks.
type System struct {
	Models  profile.Set
	Classes []Class
	sets    []*core.PolicySet
}

// New validates the classes and builds the per-class policy sets. Class
// validation goes through the tenant registry (shares must additionally
// sum to 1, which general tenant weights need not).
func New(models profile.Set, classes []Class, d int) (*System, error) {
	if len(classes) == 0 {
		return nil, fmt.Errorf("multislo: no classes")
	}
	total := 0.0
	ts := make([]tenant.Tenant, len(classes))
	for i, c := range classes {
		if c.Workers < 1 {
			return nil, fmt.Errorf("multislo: invalid class %+v", c)
		}
		// Validate at a nominal 1 QPS total; rates scale linearly with load.
		ts[i] = c.Tenant(1)
		total += c.Share
	}
	if err := tenant.Validate(ts); err != nil {
		return nil, fmt.Errorf("multislo: %w", err)
	}
	if total < 0.999 || total > 1.001 {
		return nil, fmt.Errorf("multislo: shares sum to %v, want 1", total)
	}
	s := &System{Models: models, Classes: classes}
	for _, c := range classes {
		s.sets = append(s.sets, core.NewPolicySet(core.Config{
			Models:  models,
			SLO:     c.SLO,
			Workers: c.Workers,
			Arrival: dist.NewPoisson(1),
			D:       d,
		}, nil))
	}
	return s, nil
}

// Registry builds the tenant registry for a given total load: one tenant
// per class, contracted at its share.
func (s *System) Registry(totalLoad float64) (*tenant.Registry, error) {
	ts := make([]tenant.Tenant, len(s.Classes))
	for i, c := range s.Classes {
		ts[i] = c.Tenant(totalLoad)
	}
	return tenant.NewRegistry(ts)
}

// Precompute generates each class's policy at its share of the total load.
func (s *System) Precompute(totalLoad float64) error {
	for i, c := range s.Classes {
		if err := s.sets[i].GenerateLoads([]float64{c.Share * totalLoad}); err != nil {
			return err
		}
	}
	return nil
}

// ClassPolicy returns class i's policy for its share of the total load.
func (s *System) ClassPolicy(i int, totalLoad float64) (*core.Policy, error) {
	return s.sets[i].PolicyFor(s.Classes[i].Share * totalLoad)
}

// Run serves a constant total load for dur seconds: the tenant workload
// generator emits one independent Poisson stream per class at its share of
// the load (the superposition is Poisson at the total, matching the
// paper's single-stream split), and each class's queue is drained by its
// own workers under its own RAMSIS policy. Per-class metrics come back
// with the tenant breakdown populated.
func (s *System) Run(totalLoad, dur float64, seed int64) (map[string]sim.Metrics, error) {
	if err := s.Precompute(totalLoad); err != nil {
		return nil, err
	}
	reg, err := s.Registry(totalLoad)
	if err != nil {
		return nil, err
	}
	evs := tenant.Arrivals(reg.All(), dur, seed)
	perClass := make(map[string][]sim.Query, len(s.Classes))
	for _, ev := range evs {
		perClass[ev.Tenant] = append(perClass[ev.Tenant], sim.Query{
			ID: len(perClass[ev.Tenant]), Arrival: ev.T, Tenant: ev.Tenant,
		})
	}
	out := make(map[string]sim.Metrics, len(s.Classes))
	for i, c := range s.Classes {
		classTrace := trace.Constant(c.Share*totalLoad, dur)
		sched := sim.NewRAMSIS(s.sets[i], monitor.Oracle{Trace: classTrace})
		e := sim.NewEngine(s.Models, c.SLO, c.Workers, sim.Deterministic{}, sched, seed+int64(i))
		e.TenantSLOs = map[string]float64{c.Name: c.SLO}
		out[c.Name] = e.RunQueries(perClass[c.Name])
	}
	return out, nil
}
