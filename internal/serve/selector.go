package serve

import (
	"fmt"

	"ramsis/internal/core"
	"ramsis/internal/profile"
)

// SelectFunc is an online model-selection decision for one worker queue:
// given the modeled time, anticipated load, queue length, and the earliest
// queued query's slack, it returns the model name and batch size to run.
type SelectFunc func(now, load float64, queueLen int, slack float64) (model string, batch int)

// RAMSISSelector adapts an offline-generated policy set to the online
// selector interface (§3.2.2). It uses the non-blocking lookup: when the
// anticipated load exceeds the pre-computed ladder, serving continues with
// the highest-load policy while the missing one generates in the
// background — real-time serving must not stall behind policy generation.
func RAMSISSelector(set *core.PolicySet) SelectFunc {
	return func(now, load float64, n int, slack float64) (string, int) {
		pol, err := set.PolicyForNow(load)
		if err != nil {
			panic(fmt.Sprintf("serve: no policy: %v", err))
		}
		c := pol.Select(n, slack)
		b := c.Batch
		if b > n {
			b = n
		}
		return c.Model, b
	}
}

// LoadGranularSelector adapts a load-granular model choice (Jellyfish+,
// ModelSwitching, INFaaS) with adaptive batching capped at half the SLO.
func LoadGranularSelector(profiles profile.Set, slo float64, modelFor func(load float64) int) SelectFunc {
	return func(_, load float64, n int, _ float64) (string, int) {
		p := profiles.Profiles[modelFor(load)]
		b := p.MaxBatchWithin(slo / 2)
		if b < 1 {
			b = 1
		}
		if b > n {
			b = n
		}
		return p.Name, b
	}
}
