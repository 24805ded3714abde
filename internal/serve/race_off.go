//go:build !race

package serve

// RaceEnabled reports whether the race detector is compiled in.
const RaceEnabled = false
