package load

import (
	"math"
	"slices"
	"testing"
)

func TestLatencySummary(t *testing.T) {
	mean, p50, p95, p99 := latencySummary(nil)
	if mean != 0 || p50 != 0 || p95 != 0 || p99 != 0 {
		t.Error("empty summary should be all zero")
	}
	lat := make([]float64, 100)
	for i := range lat {
		lat[i] = float64(i + 1) // 1..100
	}
	slices.Reverse(lat) // sorted in place, whatever the order
	mean, p50, p95, p99 = latencySummary(lat)
	if !slices.IsSorted(lat) {
		t.Error("latencies not sorted in place")
	}
	if math.Abs(mean-50.5) > 1e-9 {
		t.Errorf("mean = %v, want 50.5", mean)
	}
	if p50 != 50 || p95 != 95 || p99 != 99 {
		t.Errorf("quantiles = %v/%v/%v, want 50/95/99", p50, p95, p99)
	}
}
