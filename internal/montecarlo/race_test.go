//go:build race

package montecarlo

// Under the race detector sync.Pool drops a share of what it is given on
// purpose, so pooled-allocation ceilings do not hold there.
func init() { raceEnabled = true }
