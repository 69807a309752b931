package mathx

import (
	"fmt"
	"strings"
)

// Histogram is a fixed-bucket histogram over integer values in [1, Max].
// Bucket i (zero-based) covers exactly the value i+1 when Log is false;
// when Log is true buckets are powers of two: bucket i covers
// [2^i, 2^{i+1}).
//
// The zero value is not usable; construct with NewHistogram or
// NewLogHistogram.
type Histogram struct {
	counts []int64
	total  int64
	max    int
	log    bool
}

// NewHistogram returns a linear histogram over values in [1, max].
func NewHistogram(max int) *Histogram {
	if max < 1 {
		max = 1
	}
	return &Histogram{counts: make([]int64, max), max: max}
}

// NewLogHistogram returns a power-of-two bucketed histogram over values
// in [1, max].
func NewLogHistogram(max int) *Histogram {
	if max < 1 {
		max = 1
	}
	buckets := ILog2(max) + 1
	return &Histogram{counts: make([]int64, buckets), max: max, log: true}
}

// Add records one observation of value v. Values outside [1, Max] are
// clamped into range so that totals stay consistent.
func (h *Histogram) Add(v int) {
	if v < 1 {
		v = 1
	}
	if v > h.max {
		v = h.max
	}
	idx := v - 1
	if h.log {
		idx = ILog2(v)
		if idx >= len(h.counts) {
			idx = len(h.counts) - 1
		}
	}
	h.counts[idx]++
	h.total++
}

// Total returns the number of observations recorded.
func (h *Histogram) Total() int64 { return h.total }

// Buckets returns the number of buckets.
func (h *Histogram) Buckets() int { return len(h.counts) }

// Count returns the raw count in bucket i.
func (h *Histogram) Count(i int) int64 {
	if i < 0 || i >= len(h.counts) {
		return 0
	}
	return h.counts[i]
}

// Probability returns the empirical probability mass of bucket i.
func (h *Histogram) Probability(i int) float64 {
	if h.total == 0 {
		return 0
	}
	return float64(h.Count(i)) / float64(h.total)
}

// BucketLabel returns a human-readable label for bucket i.
func (h *Histogram) BucketLabel(i int) string {
	if !h.log {
		return fmt.Sprintf("%d", i+1)
	}
	lo := 1 << uint(i)
	hi := lo*2 - 1
	if lo == hi {
		return fmt.Sprintf("%d", lo)
	}
	return fmt.Sprintf("%d-%d", lo, hi)
}

// String renders the histogram as an ASCII table of probabilities,
// skipping empty buckets.
func (h *Histogram) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "histogram (n=%d)\n", h.total)
	for i := range h.counts {
		if h.counts[i] == 0 {
			continue
		}
		fmt.Fprintf(&b, "  %-12s %10d  %.6f\n", h.BucketLabel(i), h.counts[i], h.Probability(i))
	}
	return b.String()
}
