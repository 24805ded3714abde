package sched

import (
	"fmt"

	"ramsis/internal/adapt"
)

// Selector is an online model-selection decision for one worker queue:
// given the modeled time, the anticipated load, the queue length and the
// slack of the tightest deadline in the batch window, it names the model
// and batch size to run. Core.Decide validates, clamps and caps the answer.
type Selector func(now, load float64, queueLen int, slack float64) (model string, batch int)

// AdaptiveSelector is an adapt.Adapter as a selector, the same in the
// simulator and the frontend (§3.2.2): the adapter's trigger sees the
// anticipated load and answers with the policy serving it, then the policy
// decides for the worker's queue state. Which constructor built the adapter
// picks the trigger, and its Background setting is the one difference
// between the drivers: on the frontend's dispatch path a generation runs on
// a goroutine rather than stalling the worker loop, and dispatch keeps the
// old ladder until the new policy is inserted.
func AdaptiveSelector(a *adapt.Adapter) Selector {
	return func(now, load float64, n int, slack float64) (string, int) {
		pol := a.Policy(now, load)
		if pol == nil {
			panic(fmt.Sprintf("sched: no policy for load %v: empty policy set", load))
		}
		c := pol.Select(n, slack)
		return c.Model, c.Batch
	}
}
