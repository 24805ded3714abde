package serve

import (
	"ramsis/internal/core"
	"ramsis/internal/sched"
)

// RAMSISSelector adapts an offline-generated policy set to the online
// selector interface (§3.2.2). It uses the non-blocking lookup: when the
// anticipated load exceeds the pre-computed ladder, serving continues with
// the highest-load policy while the missing one generates in the
// background — real-time serving must not stall behind policy generation.
func RAMSISSelector(set *core.PolicySet) sched.Selector {
	return sched.PolicySelector(func(_, load float64) (*core.Policy, error) { return set.PolicyForNow(load) })
}
