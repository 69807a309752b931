package mathx

import (
	"sort"
	"testing"
)

func TestHeapSortsInts(t *testing.T) {
	h := NewHeap(func(a, b int) bool { return a < b }, 4)
	in := []int{5, 3, 8, 1, 9, 2, 7, 2, 0, 6}
	for _, v := range in {
		h.Push(v)
	}
	if h.Len() != len(in) {
		t.Fatalf("Len = %d, want %d", h.Len(), len(in))
	}
	if h.Peek() != 0 {
		t.Fatalf("Peek = %d, want 0", h.Peek())
	}
	want := append([]int(nil), in...)
	sort.Ints(want)
	for i, w := range want {
		if got := h.Pop(); got != w {
			t.Fatalf("pop %d = %d, want %d", i, got, w)
		}
	}
	if h.Len() != 0 {
		t.Fatalf("Len after draining = %d", h.Len())
	}
}

func TestHeapInterleavedPushPop(t *testing.T) {
	// The discrete-event pattern: pushes never precede the last pop, so
	// pops must come out non-decreasing.
	h := NewHeap(func(a, b int) bool { return a < b }, 0)
	h.Push(1)
	h.Push(4)
	last := -1
	for i := 0; h.Len() > 0; i++ {
		v := h.Pop()
		if v < last {
			t.Fatalf("pop %d went backward: %d after %d", i, v, last)
		}
		last = v
		if i < 5 {
			h.Push(v + 3)
			h.Push(v + 2)
		}
	}
}
