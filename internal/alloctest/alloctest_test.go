package alloctest

import (
	"runtime"
	"testing"
)

var sink []byte

// TestMeasureCountsEveryAllocation checks that the window counts each
// allocation of f exactly, totals bytes, and restores GOMAXPROCS.
func TestMeasureCountsEveryAllocation(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	inside := 0
	mallocs, bytes := Measure(func() {
		inside = runtime.GOMAXPROCS(0)
		for i := 0; i < 3; i++ {
			sink = make([]byte, 1024)
		}
	})
	if mallocs != 3 || bytes < 3*1024 {
		t.Errorf("three 1 KiB allocations measured as %d objects, %d bytes", mallocs, bytes)
	}
	if inside != 1 || runtime.GOMAXPROCS(0) != procs {
		t.Errorf("GOMAXPROCS %d inside the window and %d after it, want 1 and %d", inside, runtime.GOMAXPROCS(0), procs)
	}
	if mallocs, _ := Measure(func() {}); mallocs != 0 {
		t.Errorf("an empty window measured %d allocations", mallocs)
	}
}
