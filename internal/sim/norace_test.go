//go:build !race

package sim

// raceEnabled reports that the race detector is on (race_test.go).
const raceEnabled = false
