package sched

import (
	"fmt"

	"ramsis/internal/adapt"
	"ramsis/internal/core"
)

// Selector is an online model-selection decision for one worker queue:
// given the modeled time, the anticipated load, the queue length and the
// slack of the tightest deadline in the batch window, it names the model
// and batch size to run. Core.Decide validates, clamps and caps the answer.
type Selector func(now, load float64, queueLen int, slack float64) (model string, batch int)

// PolicySelector adapts a source of offline-generated policies to the
// online selector interface (§3.2.2): look up the policy serving the
// anticipated load, then the decision for the worker's queue state. The
// lookup is the one thing that differs between callers — the simulator
// blocks on PolicySet.PolicyFor (generation costs no virtual time), the
// frontend uses PolicySet.PolicyForNow so real-time serving never stalls
// behind policy generation, and AdaptiveSelector feeds an adapt.Adapter's
// drift detector before answering from its published set.
func PolicySelector(policyFor func(now, load float64) (*core.Policy, error)) Selector {
	return func(now, load float64, n int, slack float64) (string, int) {
		pol, err := policyFor(now, load)
		if err != nil || pol == nil {
			panic(fmt.Sprintf("sched: no policy for load %v: %v", load, err))
		}
		c := pol.Select(n, slack)
		return c.Model, c.Batch
	}
}

// AdaptiveSelector is an adapt.Adapter as a selector, the same in the
// simulator and the frontend: every selection feeds the monitored load to
// the drift detector, and the policy lookup goes through the adapter's
// atomically published set. On the frontend's dispatch path the adapter
// should be configured with Background set, so a confirmed drift starts its
// re-solve on a goroutine rather than stalling the worker loop; dispatch
// keeps using the old policy until the solved one is hot-swapped in.
func AdaptiveSelector(a *adapt.Adapter) Selector {
	return PolicySelector(func(now, load float64) (*core.Policy, error) {
		a.Observe(now, load)
		return a.PolicyFor(load), nil
	})
}
