package mathx

// Heap is a binary min-heap over T under an explicit strict ordering,
// the generics replacement for the container/heap boilerplate the
// virtual-time replays used to carry: Push and Pop move concrete
// values, so there is no interface{} boxing on the hot path, and the
// backing slice is preallocated and reused across Pops instead of
// reallocated per operation.
//
// When less is a strict total order (no two distinct pushed elements
// compare equal in both directions), the sequence of Pops is uniquely
// determined by the multiset of pushed elements — independent of push
// order and of the heap's internal layout. The discrete-event engine
// (internal/engine) leans on exactly that property for determinism,
// and internal/engine's property tests pin it.
type Heap[T any] struct {
	less func(a, b T) bool
	s    []T
}

// NewHeap returns an empty heap ordered by less, with room for
// capacity elements before the backing slice grows.
func NewHeap[T any](less func(a, b T) bool, capacity int) *Heap[T] {
	if capacity < 0 {
		capacity = 0
	}
	return &Heap[T]{less: less, s: make([]T, 0, capacity)}
}

// Len returns the number of elements held.
func (h *Heap[T]) Len() int { return len(h.s) }

// Push adds v to the heap.
func (h *Heap[T]) Push(v T) {
	h.s = append(h.s, v)
	i := len(h.s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(h.s[i], h.s[parent]) {
			break
		}
		h.s[i], h.s[parent] = h.s[parent], h.s[i]
		i = parent
	}
}

// Peek returns the minimum element without removing it. It must not be
// called on an empty heap.
func (h *Heap[T]) Peek() T { return h.s[0] }

// Pop removes and returns the minimum element. It must not be called
// on an empty heap. The backing slice is retained for reuse.
func (h *Heap[T]) Pop() T {
	top := h.s[0]
	n := len(h.s) - 1
	h.s[0] = h.s[n]
	var zero T
	h.s[n] = zero // release references held by pointer-bearing T
	h.s = h.s[:n]
	i := 0
	for {
		left, right := 2*i+1, 2*i+2
		smallest := i
		if left < n && h.less(h.s[left], h.s[smallest]) {
			smallest = left
		}
		if right < n && h.less(h.s[right], h.s[smallest]) {
			smallest = right
		}
		if smallest == i {
			break
		}
		h.s[i], h.s[smallest] = h.s[smallest], h.s[i]
		i = smallest
	}
	return top
}

// Reserve grows the backing slice to hold at least capacity elements,
// so a burst of Pushes up to that size cannot reallocate mid-loop. The
// sharded event engine calls it when cross-shard handoff batches are
// admitted: the batch size is known before the pushes start, and a
// shard's heap lives for the whole run, so paying the growth once
// keeps the per-event path allocation-free.
func (h *Heap[T]) Reserve(capacity int) {
	if capacity <= cap(h.s) {
		return
	}
	s := make([]T, len(h.s), capacity)
	copy(s, h.s)
	h.s = s
}
