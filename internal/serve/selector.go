package serve

import (
	"ramsis/internal/adapt"
	"ramsis/internal/core"
	"ramsis/internal/profile"
	"ramsis/internal/sched"
)

// SelectFunc is an online model-selection decision for one worker queue:
// given the modeled time, anticipated load, queue length, and the slack of
// the tightest deadline in the batch window, it returns the model name and
// batch size to run.
type SelectFunc = sched.Selector

// RAMSISSelector adapts an offline-generated policy set to the online
// selector interface (§3.2.2). It uses the non-blocking lookup: when the
// anticipated load exceeds the pre-computed ladder, serving continues with
// the highest-load policy while the missing one generates in the
// background — real-time serving must not stall behind policy generation.
func RAMSISSelector(set *core.PolicySet) SelectFunc {
	return sched.PolicySelector(func(_, load float64) (*core.Policy, error) { return set.PolicyForNow(load) })
}

// AdaptiveSelector adapts an adapt.Adapter to the online selector
// interface: every selection feeds the monitored load to the drift
// detector, and the policy lookup goes through the adapter's atomically
// published set. The adapter should be configured with Background set —
// the selector runs on the dispatch path, and a confirmed drift must start
// its re-solve on a goroutine rather than stall the worker loop; dispatch
// keeps using the old policy until the solved one is hot-swapped in.
func AdaptiveSelector(a *adapt.Adapter) SelectFunc {
	return sched.PolicySelector(func(now, load float64) (*core.Policy, error) {
		a.Observe(now, load)
		return a.PolicyFor(load), nil
	})
}

// LoadGranularSelector adapts a load-granular model choice (Jellyfish+,
// ModelSwitching, INFaaS) with adaptive batching capped at half the SLO.
func LoadGranularSelector(profiles profile.Set, slo float64, modelFor func(load float64) int) SelectFunc {
	return func(_, load float64, _ int, _ float64) (string, int) {
		p := profiles.Profiles[modelFor(load)]
		return p.Name, max(p.MaxBatchWithin(slo/2), 1)
	}
}
