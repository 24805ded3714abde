// Package resource implements the ISS resource manager of Fig. 1: the
// component that provisions workers. §5.1 notes that users or the resource
// manager can use RAMSIS's expected accuracy and expected violation rate to
// direct resource scaling via an offline search over configurations; this
// package implements that search plus a simple interval autoscaler in the
// style of MArk/InferLine (§8), which RAMSIS composes with.
//
// It is kept beside its only importer, the capacityplanning example.
package resource

import (
	"fmt"
	"math"

	"ramsis/internal/core"
	"ramsis/internal/dist"
	"ramsis/internal/profile"
	"ramsis/internal/trace"
)

// Requirements bound an acceptable operating point in terms of the §5.1
// guarantees.
type Requirements struct {
	// SLO is the response latency SLO in seconds.
	SLO float64
	// MinAccuracy is the minimum acceptable expected accuracy (0 disables).
	MinAccuracy float64
	// MaxViolation is the maximum acceptable expected SLO violation rate;
	// 0 defaults to 0.05, the paper's reporting threshold.
	MaxViolation float64
	// D is the policy FLD resolution; 0 defaults to 100.
	D int
}

func (r Requirements) withDefaults() Requirements {
	if r.MaxViolation == 0 {
		r.MaxViolation = 0.05
	}
	if r.D == 0 {
		r.D = 100
	}
	return r
}

// Plan is a provisioning decision: the worker count and the policy whose
// guarantees justified it.
type Plan struct {
	Workers int
	Policy  *core.Policy
}

// MinWorkers finds the smallest worker count in [1, maxWorkers] whose
// RAMSIS policy meets the requirements at the given load, by binary search
// over the worker count (guarantees improve monotonically with workers
// since the per-worker load shrinks). It returns an error when even
// maxWorkers cannot meet the requirements.
func MinWorkers(models profile.Set, req Requirements, load float64, maxWorkers int) (Plan, error) {
	req = req.withDefaults()
	if maxWorkers < 1 {
		return Plan{}, fmt.Errorf("resource: maxWorkers %d < 1", maxWorkers)
	}
	probe := func(workers int) (*core.Policy, bool, error) {
		pol, err := core.Generate(core.Config{
			Models:  models,
			SLO:     req.SLO,
			Workers: workers,
			Arrival: dist.NewPoisson(load),
			D:       req.D,
		})
		if err != nil {
			return nil, false, err
		}
		ok := pol.ExpectedViolation <= req.MaxViolation &&
			(req.MinAccuracy == 0 || pol.ExpectedAccuracy >= req.MinAccuracy)
		return pol, ok, nil
	}
	// Check feasibility at the top first.
	topPol, topOK, err := probe(maxWorkers)
	if err != nil {
		return Plan{}, err
	}
	if !topOK {
		return Plan{}, fmt.Errorf(
			"resource: %d workers insufficient for load %.0f QPS (expected accuracy %.4f, violation %.4f)",
			maxWorkers, load, topPol.ExpectedAccuracy, topPol.ExpectedViolation)
	}
	lo, hi := 1, maxWorkers
	best := Plan{Workers: maxWorkers, Policy: topPol}
	for lo < hi {
		mid := (lo + hi) / 2
		pol, ok, err := probe(mid)
		if err != nil {
			return Plan{}, err
		}
		if ok {
			best = Plan{Workers: mid, Policy: pol}
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return best, nil
}

// StaticPlan provisions for a trace's peak load, the conservative static
// configuration the autoscaler is compared against.
func StaticPlan(models profile.Set, req Requirements, tr trace.Trace, maxWorkers int) (Plan, error) {
	return MinWorkers(models, req, tr.MaxQPS(), maxWorkers)
}

// Schedule is an autoscaling schedule: worker counts per trace interval.
type Schedule struct {
	IntervalSec float64
	Workers     []int
}

// Peak returns the schedule's maximum worker count.
func (s Schedule) Peak() int {
	max := 0
	for _, w := range s.Workers {
		if w > max {
			max = w
		}
	}
	return max
}

// MeanWorkers returns the time-average provisioned workers — the cost
// measure autoscaling optimizes.
func (s Schedule) MeanWorkers() float64 {
	if len(s.Workers) == 0 {
		return 0
	}
	sum := 0
	for _, w := range s.Workers {
		sum += w
	}
	return float64(sum) / float64(len(s.Workers))
}

// Autoscale derives a per-interval worker schedule for a trace: each
// interval gets the minimum worker count meeting the requirements at its
// load times a headroom factor (headroom >= 1 guards the moving-average
// monitor's overshoot; 0 defaults to 1.1). Results are memoized per load,
// and the schedule never scales below the count needed for the smallest
// load.
func Autoscale(models profile.Set, req Requirements, tr trace.Trace, maxWorkers int, headroom float64) (Schedule, error) {
	req = req.withDefaults()
	if headroom == 0 {
		headroom = 1.1
	}
	if headroom < 1 {
		return Schedule{}, fmt.Errorf("resource: headroom %v < 1", headroom)
	}
	sched := Schedule{IntervalSec: tr.IntervalSec, Workers: make([]int, len(tr.QPS))}
	memo := map[float64]int{}
	for i, qps := range tr.QPS {
		// Quantize loads so the memo stays small across similar intervals.
		load := math.Ceil(qps*headroom/100) * 100
		if w, ok := memo[load]; ok {
			sched.Workers[i] = w
			continue
		}
		plan, err := MinWorkers(models, req, load, maxWorkers)
		if err != nil {
			return Schedule{}, err
		}
		memo[load] = plan.Workers
		sched.Workers[i] = plan.Workers
	}
	return sched, nil
}

// SelectModels chooses at most k models to pre-load per worker, greedily
// maximizing the RAMSIS policy's expected accuracy at the given load while
// meeting the violation requirement. §5.2 notes that memory capacity limits
// the number of simultaneously loaded models, and §E shows RAMSIS retains
// most of its accuracy with very few; this implements the loading decision.
// The fastest model is always included (it is the forced fallback that
// keeps every queue state serviceable). Returns the chosen subset and the
// policy that justified it.
func SelectModels(models profile.Set, req Requirements, load float64, workers, k int) (profile.Set, *core.Policy, error) {
	req = req.withDefaults()
	if k < 1 {
		return profile.Set{}, nil, fmt.Errorf("resource: k %d < 1", k)
	}
	front := models.ParetoFront()
	chosen := []string{front.Fastest().Name}
	evaluate := func(names []string) (*core.Policy, error) {
		return core.Generate(core.Config{
			Models:  models.Subset(names...),
			SLO:     req.SLO,
			Workers: workers,
			Arrival: dist.NewPoisson(load),
			D:       req.D,
		})
	}
	best, err := evaluate(chosen)
	if err != nil {
		return profile.Set{}, nil, err
	}
	for len(chosen) < k {
		var bestCand string
		bestPol := best
		for _, p := range front.Profiles {
			if contains(chosen, p.Name) {
				continue
			}
			pol, err := evaluate(append(append([]string(nil), chosen...), p.Name))
			if err != nil {
				return profile.Set{}, nil, err
			}
			if pol.ExpectedViolation > req.MaxViolation {
				continue
			}
			if pol.ExpectedAccuracy > bestPol.ExpectedAccuracy {
				bestPol, bestCand = pol, p.Name
			}
		}
		if bestCand == "" {
			break // no candidate improves further
		}
		chosen = append(chosen, bestCand)
		best = bestPol
	}
	return models.Subset(chosen...), best, nil
}

func contains(xs []string, x string) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}
