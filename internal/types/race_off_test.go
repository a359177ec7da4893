//go:build !race

package types_test

// raceEnabled reports whether the race detector is active. sync.Pool
// deliberately drops items at random under -race, so allocation-count
// assertions that depend on pool hits are gated on this.
const raceEnabled = false
