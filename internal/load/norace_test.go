//go:build !race

package load

// raceEnabled reports that the race detector is on (race_test.go).
const raceEnabled = false
