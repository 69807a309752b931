//go:build !race

package engine

// raceEnabled reports that the race detector is on (race_test.go).
const raceEnabled = false
