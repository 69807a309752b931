package mathx

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestHistogramLinear(t *testing.T) {
	h := NewHistogram(4)
	for _, v := range []int{1, 2, 2, 3, 4, 4, 4, 9, 0} {
		h.Add(v) // 9 clamps to 4, 0 clamps to 1
	}
	if h.Total() != 9 {
		t.Fatalf("total = %d", h.Total())
	}
	wantCounts := []int64{2, 2, 1, 4}
	for i, w := range wantCounts {
		if h.Count(i) != w {
			t.Errorf("bucket %d = %d, want %d", i, h.Count(i), w)
		}
	}
	if p := h.Probability(3); math.Abs(p-4.0/9.0) > 1e-12 {
		t.Errorf("P(bucket 3) = %v", p)
	}
	if h.Count(-1) != 0 || h.Count(100) != 0 {
		t.Error("out-of-range Count should be 0")
	}
}

func TestHistogramLog(t *testing.T) {
	h := NewLogHistogram(16)
	// buckets: [1],[2,3],[4,7],[8,15],[16,31]
	if h.Buckets() != 5 {
		t.Fatalf("buckets = %d, want 5", h.Buckets())
	}
	for v := 1; v <= 16; v++ {
		h.Add(v)
	}
	want := []int64{1, 2, 4, 8, 1}
	for i, w := range want {
		if h.Count(i) != w {
			t.Errorf("log bucket %d = %d, want %d", i, h.Count(i), w)
		}
	}
	if got := h.BucketLabel(0); got != "1" {
		t.Errorf("label(0) = %q", got)
	}
	if got := h.BucketLabel(2); got != "4-7" {
		t.Errorf("label(2) = %q", got)
	}
}

func TestHistogramProbabilitySumsToOne(t *testing.T) {
	f := func(vals []uint16) bool {
		if len(vals) == 0 {
			return true
		}
		h := NewLogHistogram(1 << 14)
		for _, v := range vals {
			h.Add(int(v) + 1)
		}
		var sum float64
		for i := 0; i < h.Buckets(); i++ {
			sum += h.Probability(i)
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHistogramString(t *testing.T) {
	h := NewHistogram(2)
	h.Add(1)
	s := h.String()
	if !strings.Contains(s, "n=1") {
		t.Errorf("String() = %q", s)
	}
}

func TestHistogramDegenerateMax(t *testing.T) {
	h := NewHistogram(0)
	h.Add(5)
	if h.Total() != 1 || h.Count(0) != 1 {
		t.Error("degenerate max histogram should clamp")
	}
	lh := NewLogHistogram(-3)
	lh.Add(1)
	if lh.Total() != 1 {
		t.Error("degenerate log histogram should clamp")
	}
}
