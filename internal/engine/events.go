package engine

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/mathx"
)

// Injection schedules message Msg to enter the network at virtual time
// Time. (Package load re-exports this type as load.Injection, so the
// arrival models there feed the engine directly.)
type Injection struct {
	Msg  int
	Time float64
}

// Schedule is the arrival side of a run: the injections known before
// the event loop starts, plus the closed-loop feedback hook. Completed
// is consulted whenever a message leaves the system — its last service
// finished, delivered or not — and returns the injection that
// completion unlocks, if any; the returned time must not precede the
// completion time. Every injection, up front or unlocked, names one of
// the run's messages at a finite, non-negative instant, and no message
// is injected twice; Run returns an error on a schedule that breaks
// this. Both fields are consumed only from sequential
// event-loop code, in global event order: with several owners, at
// admission and when the barrier settles completions, never from a
// parallel drain.
type Schedule struct {
	Initial   []Injection
	Completed func(msg int, at float64) (Injection, bool)
}

// injectionCmp orders injections by (time, msg) — the order of the
// (time, msg, 0) first arrivals they become, since no message is
// injected twice.
func injectionCmp(a, b Injection) int {
	if c := cmp.Compare(a.Time, b.Time); c != 0 {
		return c
	}
	return cmp.Compare(a.Msg, b.Msg)
}

// pending is a run's injections not yet admitted, in injectionCmp
// order: a cursor over the schedule's up-front injections, sorted once
// (every arrival model hands them over sorted already, and then they
// are read in place), and a heap of the injections closed-loop
// completions release. Peek and Pop take the earlier of the two heads.
type pending struct {
	initial []Injection
	next    int
	release mathx.Heap[Injection]
}

// newPending returns the pending set holding initial.
func newPending(initial []Injection) pending {
	if !slices.IsSortedFunc(initial, injectionCmp) {
		initial = slices.Clone(initial)
		slices.SortFunc(initial, injectionCmp)
	}
	release := mathx.NewHeap(func(a, b Injection) bool { return injectionCmp(a, b) < 0 }, 0)
	return pending{initial: initial, release: *release}
}

// Len returns the number of injections pending.
func (p *pending) Len() int { return len(p.initial) - p.next + p.release.Len() }

// Push adds an injection a completion released.
func (p *pending) Push(inj Injection) { p.release.Push(inj) }

// Peek returns the earliest pending injection. It must not be called
// on an empty set.
func (p *pending) Peek() Injection {
	if p.initialFirst() {
		return p.initial[p.next]
	}
	return p.release.Peek()
}

// Pop removes and returns the earliest pending injection. It must not
// be called on an empty set.
func (p *pending) Pop() Injection {
	if p.initialFirst() {
		p.next++
		return p.initial[p.next-1]
	}
	return p.release.Pop()
}

// initialFirst reports whether the earliest pending injection is the
// cursor's.
func (p *pending) initialFirst() bool {
	return p.next < len(p.initial) && (p.release.Len() == 0 || injectionCmp(p.initial[p.next], p.release.Peek()) < 0)
}

// event is one message reaching its idx-th visited node at a virtual
// time: the engine's single event type. Events are ordered by
// (time, msg, idx) — a strict total order, since no message reaches
// two nodes at the same instant — so the queue's pop sequence, and with
// it the whole simulation, is independent of push order. The
// pending-interest response path reuses the type for interest
// timeouts, marked by idx -1 (a lookup waits out at most one; see
// pit.go), which keeps the order total because a hop event's idx is
// never negative.
type event struct {
	time float64
	msg  int // message index; the deterministic tie-break
	idx  int // position in the message's visited sequence
}

// eventLess is the engine's total event order.
func eventLess(a, b event) bool {
	if a.time != b.time {
		return a.time < b.time
	}
	if a.msg != b.msg {
		return a.msg < b.msg
	}
	return a.idx < b.idx
}

// The event queue stores an event in 16 bytes: its time, and (msg, idx)
// packed into one key whose unsigned order is eventLess's tie-break —
// msg in the high half, idx in the low half with its sign bit flipped,
// so a PIT timeout's idx -1 sorts below every hop's idx ≥ 0. A run
// whose message count or hop bound could not fit is an error
// (checkPackable), never a wrapped key.
const (
	maxPackedMsgs = 1 << 32
	// maxPackedHops bounds route.Options.MaxHops: a message's idx never
	// exceeds twice its hop count (a request leg of at most MaxHops hops,
	// then a PIT answer retracing at most as many), and idx must fit in
	// the key's signed 32-bit half.
	maxPackedHops = (1<<31 - 1) / 2
)

// checkPackable reports whether a run of msgs messages, each of at most
// maxHops hops, can key every event it pushes.
func checkPackable(msgs, maxHops int) error {
	if uint64(msgs) > maxPackedMsgs {
		return fmt.Errorf("engine: %d messages exceed the event queue's limit of %d", msgs, uint64(maxPackedMsgs))
	}
	if maxHops > maxPackedHops {
		return fmt.Errorf("engine: a hop bound of %d exceeds the event queue's limit of %d", maxHops, maxPackedHops)
	}
	return nil
}

// queued is an event as the queue stores it.
type queued struct {
	time float64
	key  uint64
}

func (e event) queued() queued {
	return queued{time: e.time, key: uint64(e.msg)<<32 | uint64(uint32(int32(e.idx))^1<<31)}
}

func (q queued) event() event {
	return event{time: q.time, msg: int(q.key >> 32), idx: int(int32(uint32(q.key) ^ 1<<31))}
}

// before is eventLess on the stored form.
func (q queued) before(o queued) bool {
	return q.time < o.time || q.time == o.time && q.key < o.key
}

// eventQueue is the engine's event heap: a binary min-heap of events
// under eventLess. Push sifts a hole up; Pop sifts the root's hole down
// to a leaf along the smaller children and then the last entry up into
// it (Floyd's bottom-up deletion: the last entry is usually late, so it
// rarely climbs, and each level costs one comparison instead of two). A
// four-ary layout measured within noise of the binary one in a hold
// model at live_seq's occupancy (BenchmarkEventQueue), so the simpler
// one stays.
type eventQueue struct {
	s []queued
}

// Len returns the number of events held.
func (h *eventQueue) Len() int { return len(h.s) }

// Push adds e to the queue.
func (h *eventQueue) Push(e event) {
	x := e.queued()
	s := append(h.s, x)
	i := len(s) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !x.before(s[p]) {
			break
		}
		s[i] = s[p]
		i = p
	}
	s[i] = x
	h.s = s
}

// Peek returns the earliest event without removing it. It must not be
// called on an empty queue.
func (h *eventQueue) Peek() event { return h.s[0].event() }

// Pop removes and returns the earliest event. It must not be called on
// an empty queue. The backing slice is retained for reuse.
func (h *eventQueue) Pop() event {
	s := h.s
	top := s[0]
	n := len(s) - 1
	x := s[n]
	s = s[:n]
	h.s = s
	if n == 0 {
		return top.event()
	}
	i := 0
	for c := 1; c < n; c = 2*i + 1 {
		if c+1 < n && s[c+1].before(s[c]) {
			c++
		}
		s[i] = s[c]
		i = c
	}
	for i > 0 {
		p := (i - 1) / 2
		if !x.before(s[p]) {
			break
		}
		s[i] = s[p]
		i = p
	}
	s[i] = x
	return top.event()
}

// Reserve grows the backing slice to hold at least capacity events, so
// a burst of Pushes up to that size cannot reallocate mid-loop: a run
// sizes its owners' queues with it, and the sharded driver calls it
// before admitting a barrier's hand-off batch.
func (h *eventQueue) Reserve(capacity int) {
	if capacity > cap(h.s) {
		h.s = append(make([]queued, 0, capacity), h.s...)
	}
}

// nodeQueue tracks one node's FIFO by its current busy period alone:
// the virtual time its server frees up, how many messages are still in
// the system (queued or in service), and head, the finish time of the
// oldest of them. Nothing else needs storing: the messages still in the
// system belong to one busy period, so each after the oldest arrived
// while its predecessor held the server and was served from that
// finish. Their finish times are head, head+s, head+2s, … for the run's
// service time s, each the very sum serve computed for it. A run's
// queues are one flat slice of these three words (newRunner), and no
// queue ever allocates.
type nodeQueue struct {
	busyUntil, head float64
	n               int
}

// depthAt drains completed services and returns how many messages are
// still queued or in service at time t. A service finishing exactly at
// t has left the system; one arriving exactly at t is in it. An idle
// server (busyUntil ≤ t) answers from the struct alone; otherwise each
// finish is drained once, however often routing probes the queue. s is
// the service time every message of the queue was served for.
func (q *nodeQueue) depthAt(t, s float64) int {
	if q.busyUntil <= t {
		q.n = 0
		return 0
	}
	for q.n > 0 && q.head <= t {
		q.n--
		q.head += s
	}
	return q.n
}

// serve runs one FIFO service for an arrival at time at: the message
// waits for the server to free up, holds it for serviceTime ticks, and
// is counted in the queue's depth (itself included) from arrival to
// finish.
func (q *nodeQueue) serve(at, serviceTime float64) (start, finish float64, depth int) {
	depth = q.depthAt(at, serviceTime) + 1
	start = at
	if q.busyUntil > start {
		start = q.busyUntil
	}
	finish = start + serviceTime
	q.busyUntil = finish
	if q.n == 0 {
		q.head = finish
	}
	q.n++
	return start, finish, depth
}
