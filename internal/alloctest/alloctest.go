// Package alloctest measures what a stretch of code allocates, for the
// allocation pins in other packages' tests.
package alloctest

import "runtime"

// Measure runs f and returns exactly how many heap objects and bytes
// the process allocated while it ran. Like testing.AllocsPerRun it runs
// f under GOMAXPROCS(1), after a garbage collection, so that what other
// goroutines and the collector's own bookkeeping allocate is kept out of
// the window as far as the runtime allows; unlike it, it returns exact
// totals, not a mean rounded down to an integer, which over a loop of a
// thousand calls would read 0 for up to 999 allocations.
func Measure(f func()) (mallocs, bytes uint64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
}
