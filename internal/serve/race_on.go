//go:build race

package serve

// RaceEnabled reports whether the race detector is compiled in. Timing-
// sensitive tests consult it: the detector slows the serving path several
// fold, so goodput thresholds calibrated for plain builds would measure
// the detector, not the policy.
const RaceEnabled = true
