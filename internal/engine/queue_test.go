package engine

import (
	"math"
	"reflect"
	"sort"
	"testing"

	"repro/internal/mathx"
	"repro/internal/rng"
)

// queueStep is one operation of a Push/Pop script: pop the earliest
// event, or push e.
type queueStep struct {
	pop bool
	e   event
}

// checkQueueScript replays script on an eventQueue and on a reference
// slice kept sorted by sort.Slice under eventLess — each run of pushes
// is appended and re-sorted before the next pop, which takes the
// front — then drains both. It fails at the first Peek, Pop or Len that
// differs, and returns the most events the queue held at once. A pop
// of an empty queue is skipped.
func checkQueueScript(t testing.TB, script []queueStep) (peak int) {
	t.Helper()
	var q eventQueue
	var ref []event
	sorted := true
	pop := func(step int) {
		if !sorted {
			sort.Slice(ref, func(i, j int) bool { return eventLess(ref[i], ref[j]) })
			sorted = true
		}
		if got := q.Peek(); got != ref[0] {
			t.Fatalf("step %d: Peek %+v, want %+v", step, got, ref[0])
		}
		if got := q.Pop(); got != ref[0] {
			t.Fatalf("step %d: Pop %+v, want %+v", step, got, ref[0])
		}
		ref = ref[1:]
		if q.Len() != len(ref) {
			t.Fatalf("step %d: Len %d, want %d", step, q.Len(), len(ref))
		}
	}
	for i, st := range script {
		switch {
		case !st.pop:
			q.Push(st.e)
			ref = append(ref, st.e)
			sorted = false
			peak = max(peak, q.Len())
		case len(ref) > 0:
			pop(i)
		}
	}
	for len(ref) > 0 {
		pop(len(script))
	}
	return peak
}

// FuzzEventQueue drives the event queue with arbitrary interleavings
// of Push and Pop and checks every pop against a sort.Slice reference
// under eventLess. Each op is three bytes: an odd first byte pops,
// an even one pushes an event whose time is its upper bits (a coarse
// grid, so times tie often), whose msg is small or within 56 of the
// packing limit, and whose idx is -1 (a PIT timeout), small, or within
// 5 of the largest a run can reach.
func FuzzEventQueue(f *testing.F) {
	f.Add([]byte{0, 1, 1, 2, 2, 2, 1, 0, 0, 2, 255, 255, 4, 7, 250})
	f.Add([]byte{8, 0, 0, 8, 0, 1, 8, 1, 0, 8, 200, 0, 1, 0, 0, 1, 0, 0, 1, 0, 0})
	f.Add([]byte{6, 255, 0, 6, 254, 255, 6, 0, 255, 6, 0, 0, 3, 3, 3, 6, 255, 255})
	f.Fuzz(func(t *testing.T, data []byte) {
		var script []queueStep
		for ; len(data) >= 3; data = data[3:] {
			op, m, x := data[0], data[1], data[2]
			if op&1 == 1 {
				script = append(script, queueStep{pop: true})
				continue
			}
			msg := int(m)
			if m >= 200 {
				msg = maxPackedMsgs - 1 - int(255-m)
			}
			idx := int(x) - 1
			if x >= 250 {
				idx = 2*maxPackedHops - int(255-x)
			}
			script = append(script, queueStep{e: event{time: float64(op>>1) / 8, msg: msg, idx: idx}})
		}
		checkQueueScript(t, script)
	})
}

// TestEventQueueAllocs pins the queue's allocation contract: after
// Reserve, a burst of Pushes up to the reserved size and the Pops that
// drain it allocate nothing, and neither does a steady pop-then-push
// hold.
func TestEventQueueAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	var q eventQueue
	q.Reserve(1024)
	if avg := testing.AllocsPerRun(50, func() {
		for i := 0; i < 1024; i++ {
			q.Push(event{time: float64((i * 7919) % 1024), msg: i, idx: i % 3})
		}
		for q.Len() > 0 {
			q.Pop()
		}
	}); avg != 0 {
		t.Errorf("a reserved push burst and its drain allocate %.2f per run, want 0", avg)
	}
	for i := 0; i < 1024; i++ {
		q.Push(event{time: float64(i % 97), msg: i})
	}
	if avg := testing.AllocsPerRun(50, func() {
		for i := 0; i < 256; i++ {
			e := q.Pop()
			e.time++
			e.idx++
			q.Push(e)
		}
	}); avg != 0 {
		t.Errorf("a steady pop-then-push hold allocates %.2f per run, want 0", avg)
	}
}

// BenchmarkEventQueue is a hold model at live_seq's event-queue
// occupancy (about 30 000 events in flight): each op pops the earliest
// event and pushes its successor one to two service times later, as the
// live loop does. "queue" is the engine's eventQueue; "mathx.Heap" is
// the generic heap the events used before, on the same event stream.
func BenchmarkEventQueue(b *testing.B) {
	const occupancy = 30000
	type queue interface {
		Push(event)
		Pop() event
	}
	hold := func(b *testing.B, q queue) {
		x := uint64(1)
		next := func() float64 {
			x = x*6364136223846793005 + 1442695040888963407
			return float64(x>>40) / (1 << 24)
		}
		for i := 0; i < occupancy; i++ {
			q.Push(event{time: 20 * next(), msg: i})
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e := q.Pop()
			e.time += 1 + next()
			e.idx++
			q.Push(e)
		}
	}
	b.Run("queue", func(b *testing.B) {
		var q eventQueue
		q.Reserve(occupancy + 1)
		hold(b, &q)
	})
	b.Run("mathx.Heap", func(b *testing.B) {
		hold(b, mathx.NewHeap(eventLess, occupancy+1))
	})
}

// TestCheckPackable pins where the packed event key runs out: a message
// count or hop bound one past the limit is an error, not a key that
// wraps, and Run reports it before allocating anything for the run.
func TestCheckPackable(t *testing.T) {
	for _, c := range []struct {
		msgs, hops int
		ok         bool
	}{
		{maxPackedMsgs, maxPackedHops, true},
		{maxPackedMsgs + 1, 1, false},
		{1, maxPackedHops + 1, false},
		{0, 0, true},
	} {
		if err := checkPackable(c.msgs, c.hops); (err == nil) != c.ok {
			t.Errorf("checkPackable(%d, %d) = %v, want ok=%v", c.msgs, c.hops, err, c.ok)
		}
	}
	g := testGraph(t, 64, 5, 23, 0)
	msgs := testMessages(t, g, 4, 24)
	for _, mode := range []Mode{ModeSnapshot, ModeLive} {
		cfg := baseConfig()
		cfg.Mode = mode
		cfg.Route.MaxHops = maxPackedHops + 1
		if _, err := Run(g, msgs, periodicSchedule(len(msgs), 1), cfg, rng.New(1)); err == nil {
			t.Errorf("%s: a hop bound of %d was accepted", mode, cfg.Route.MaxHops)
		}
	}
}

// TestPendingMergesInjectionOrder checks the pending set against a
// sorted reference: up-front injections (shuffled, with tied times)
// and releases pushed between pops come out in (time, msg) order. A
// sorted up-front slice is read in place; a shuffled one is sorted in a
// copy, leaving the caller's order alone.
func TestPendingMergesInjectionOrder(t *testing.T) {
	for iter := 0; iter < 20; iter++ {
		src := rng.New(uint64(7000 + iter))
		n := 20 + src.Intn(100)
		initial := make([]Injection, n)
		for i := range initial {
			initial[i] = Injection{Msg: 2 * i, Time: float64(src.Intn(n / 4))}
		}
		src.Shuffle(n, func(i, j int) { initial[i], initial[j] = initial[j], initial[i] })
		given := append([]Injection(nil), initial...)
		p := newPending(initial)
		if !reflect.DeepEqual(initial, given) {
			t.Fatalf("iter %d: newPending reordered the caller's slice", iter)
		}
		ref := append([]Injection(nil), initial...)
		released := 0
		for p.Len() > 0 {
			if src.Intn(3) == 0 {
				// A release: an odd message, so it never repeats an up-front
				// one, at a time that may tie with them.
				inj := Injection{Msg: 2*released + 1, Time: float64(src.Intn(n / 4))}
				released++
				p.Push(inj)
				ref = append(ref, inj)
			}
			sort.Slice(ref, func(i, j int) bool { return injectionCmp(ref[i], ref[j]) < 0 })
			if got := p.Peek(); got != ref[0] {
				t.Fatalf("iter %d: Peek %+v, want %+v", iter, got, ref[0])
			}
			if got := p.Pop(); got != ref[0] {
				t.Fatalf("iter %d: Pop %+v, want %+v", iter, got, ref[0])
			}
			ref = ref[1:]
			if p.Len() != len(ref) {
				t.Fatalf("iter %d: Len %d, want %d", iter, p.Len(), len(ref))
			}
		}
		sort.Slice(given, func(i, j int) bool { return injectionCmp(given[i], given[j]) < 0 })
		if q := newPending(given); &q.initial[0] != &given[0] {
			t.Fatalf("iter %d: a sorted up-front slice was copied", iter)
		}
	}
}

// TestShuffledInitialMatchesSorted pins that the order the schedule
// lists its up-front injections in is not an input: a shuffled Initial
// (tied times included) and the sorted one give byte-identical Outcomes
// under a closed loop whose releases interleave with them, on the
// one-owner plan and the windowed plan alike.
func TestShuffledInitialMatchesSorted(t *testing.T) {
	g := testGraph(t, 512, 9, 3, 5)
	msgs := testMessages(t, g, 300, 4)
	const clients = 60
	sorted := closedLoopSchedule(len(msgs), clients, 0.5)
	for i := range sorted.Initial {
		sorted.Initial[i].Time = float64(i / 4)
	}
	shuffled := sorted
	shuffled.Initial = append([]Injection(nil), sorted.Initial...)
	rng.New(11).Shuffle(clients, func(i, j int) {
		shuffled.Initial[i], shuffled.Initial[j] = shuffled.Initial[j], shuffled.Initial[i]
	})
	for _, c := range []struct {
		shards int
		plan   ExecutionPlan
	}{{1, PlanLiveSequential}, {3, PlanLiveSharded}} {
		cfg := baseConfig()
		cfg.Mode = ModeLive
		cfg.Shards = c.shards
		want, err := Run(g, msgs, sorted, cfg, rng.New(2))
		if err != nil {
			t.Fatal(err)
		}
		got, err := Run(g, msgs, shuffled, cfg, rng.New(2))
		if err != nil {
			t.Fatal(err)
		}
		if got.Plan != c.plan {
			t.Fatalf("shards=%d: plan %s, want %s", c.shards, got.Plan, c.plan)
		}
		if got.Injected != len(msgs) {
			t.Fatalf("shards=%d: %d of %d injected", c.shards, got.Injected, len(msgs))
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("shards=%d: the shuffled schedule's outcome differs from the sorted one's", c.shards)
		}
	}
}

// refQueue is the node FIFO as it was kept before nodeQueue stored its
// busy period alone: the finish time of every message still in the
// system, in a ring that doubles when full. It is the reference
// nodeQueue is held to, as refBacktrack, refNearest and refKnown are
// for the structures that replaced them.
type refQueue struct {
	busyUntil float64
	finish    []float64
	head, n   int
}

func (q *refQueue) depthAt(t float64) int {
	for q.n > 0 && q.finish[q.head] <= t {
		q.n--
		if q.head++; q.head == len(q.finish) {
			q.head = 0
		}
	}
	return q.n
}

func (q *refQueue) serve(at, serviceTime float64) (start, finish float64, depth int) {
	depth = q.depthAt(at) + 1
	start = max(at, q.busyUntil)
	finish = start + serviceTime
	q.busyUntil = finish
	if q.n == len(q.finish) {
		grown := make([]float64, max(4, 2*q.n))
		k := copy(grown, q.finish[q.head:])
		copy(grown[k:], q.finish[:q.head])
		q.finish, q.head = grown, 0
	}
	q.finish[(q.head+q.n)%len(q.finish)] = finish
	q.n++
	return start, finish, depth
}

// nodeQueueOp is one operation of a serve/probe script: an arrival
// served at time at, or a depth probe at at.
type nodeQueueOp struct {
	serve bool
	at    float64
}

// checkNodeQueueScript runs script on a nodeQueue and a refQueue at
// service time s and fails at the first start, finish or depth whose
// bits differ, or the first state where the queue's count or head is
// not the ring's count and oldest finish.
func checkNodeQueueScript(t testing.TB, s float64, script []nodeQueueOp) {
	t.Helper()
	var q nodeQueue
	var ref refQueue
	for i, op := range script {
		if op.serve {
			start, finish, depth := q.serve(op.at, s)
			wStart, wFinish, wDepth := ref.serve(op.at, s)
			if math.Float64bits(start) != math.Float64bits(wStart) ||
				math.Float64bits(finish) != math.Float64bits(wFinish) || depth != wDepth {
				t.Fatalf("s=%v op %d: serve(%v) = (%v, %v, %d), ring says (%v, %v, %d)",
					s, i, op.at, start, finish, depth, wStart, wFinish, wDepth)
			}
		} else if got, want := q.depthAt(op.at, s), ref.depthAt(op.at); got != want {
			t.Fatalf("s=%v op %d: depthAt(%v) = %d, ring says %d", s, i, op.at, got, want)
		}
		oldest := math.NaN()
		if ref.n > 0 {
			oldest = ref.finish[ref.head]
		}
		if q.n != ref.n || q.n > 0 && math.Float64bits(q.head) != math.Float64bits(oldest) {
			t.Fatalf("s=%v op %d: %d in system from head %v, ring holds %d from %v",
				s, i, q.n, q.head, ref.n, oldest)
		}
	}
}

// nodeQueueServiceTimes are the service times the differential checks
// run at: exact, a repeating binary fraction, an inexact decimal, and
// one small enough that a long busy period sums many roundings.
var nodeQueueServiceTimes = []float64{1, 1.0 / 3, 0.7, 1e-3}

// nodeQueueScript decodes a script from bytes, two per op. The first
// byte's low bit picks serve or probe, and its next bit moves the clock
// to the ring's oldest finish instant (when that is later) before the
// op, so serves and probes land exactly on departures. The second byte
// advances the clock by its low six bits: not at all (tied instants),
// in whole service times, in sevenths of a tick, or by an idle gap of
// hundreds of ticks, as its top two bits say.
func nodeQueueScript(s float64, data []byte) []nodeQueueOp {
	var (
		script []nodeQueueOp
		ref    refQueue
		now    float64
	)
	for ; len(data) >= 2; data = data[2:] {
		op, adv := data[0], data[1]
		k := float64(adv & 63)
		switch adv >> 6 {
		case 1:
			now += k * s
		case 2:
			now += k / 7
		case 3:
			now += k * 100
		}
		if op&2 != 0 && ref.n > 0 && ref.finish[ref.head] > now {
			now = ref.finish[ref.head]
		}
		o := nodeQueueOp{serve: op&1 == 1, at: now}
		if o.serve {
			ref.serve(now, s)
		} else {
			ref.depthAt(now)
		}
		script = append(script, o)
	}
	return script
}

// TestNodeQueueMatchesRing holds nodeQueue to the ring it replaced on
// seeded random scripts at every service time — tied arrivals, idle
// gaps and probes at exact finish instants among them — and on busy
// periods of 2·10⁴ messages, served at one instant and drained one
// departure instant at a time.
func TestNodeQueueMatchesRing(t *testing.T) {
	src := rng.New(47)
	for _, s := range nodeQueueServiceTimes {
		for trial := 0; trial < 50; trial++ {
			data := make([]byte, 2*(1+src.Intn(400)))
			for i := range data {
				data[i] = byte(src.Intn(256))
			}
			// Mostly ties and short advances, so queues build up.
			for i := 1; i < len(data); i += 2 {
				if src.Bool(0.8) {
					data[i] &= 0x7f
				}
			}
			checkNodeQueueScript(t, s, nodeQueueScript(s, data))
		}
		const long = 20000
		script := make([]nodeQueueOp, 0, 2*long)
		for i := 0; i < long; i++ {
			script = append(script, nodeQueueOp{serve: true, at: 5})
		}
		var ref refQueue
		for _, op := range script {
			ref.serve(op.at, s)
		}
		for i := 0; i < long; i++ {
			script = append(script, nodeQueueOp{at: ref.finish[(ref.head+i)%len(ref.finish)]})
		}
		checkNodeQueueScript(t, s, script)
	}
}

// FuzzNodeQueue is TestNodeQueueMatchesRing over arbitrary scripts: the
// first byte picks the service time, the rest decode as in
// nodeQueueScript.
func FuzzNodeQueue(f *testing.F) {
	f.Add([]byte{0, 1, 0, 1, 0, 1, 64, 0, 66, 2, 0, 1, 200})
	f.Add([]byte{1, 1, 0, 1, 0, 1, 1, 3, 0, 2, 0, 0, 255, 1, 0})
	f.Add([]byte{2, 1, 130, 1, 130, 0, 0, 1, 129, 2, 0, 3, 65, 0, 255})
	f.Add([]byte{3, 1, 0, 1, 0, 1, 0, 1, 0, 2, 0, 2, 0, 0, 100})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		s := nodeQueueServiceTimes[int(data[0])%len(nodeQueueServiceTimes)]
		checkNodeQueueScript(t, s, nodeQueueScript(s, data[1:]))
	})
}
