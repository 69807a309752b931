//go:build race

package load

// raceEnabled reports that the race detector is on. Its instrumentation
// allocates on its own, so the allocation pins skip under it.
const raceEnabled = true
