//go:build !race

package route

// raceEnabled reports that the race detector is on (race_test.go).
const raceEnabled = false
