package engine

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/mathx"
	"repro/internal/metric"
	"repro/internal/route"
	"repro/internal/telemetry"
)

// This file holds the live modes' event handlers and the state they
// run on. There is one set of handlers — shard.process here, the PIT
// discipline in pit.go — and a shard is an *owner*: a contiguous region
// of the node set, the heap of events addressed to it, and its slice of
// every per-node table. horizon.go drives the owners in one of two
// ways, and the handlers neither know nor care which:
//
//   - One owner (PlanLiveSequential). A single shard owns every node
//     and pops events in global (time, msg, idx) order, so each side
//     effect happens at the pop that caused it.
//   - k owners (PlanLiveSharded). Conservative parallel discrete-event
//     simulation with a lookahead of one service time. Nodes partition
//     into Config.Shards contiguous regions of the space's point order
//     (shardOf) — slabs along the first axis, so torus neighbours
//     mostly share an owner. Every event processed at time t schedules
//     its successor at finish ≥ t + 1/Capacity, so inside a window
//     [W, W+1/Capacity) no event — local or remote — can create work
//     another owner would have to see in the same window, and each
//     owner drains its heap below the horizon without locks. A
//     successor addressed to another owner's node waits in a
//     per-destination outbox and is merged at the barrier.
//
// The one thing the two drivers do differently inside a handler is what
// becomes of a side effect whose order is globally visible — a
// completion (latency record, closed-loop unlock, follower cascade), an
// aggregation merge, a churn strand park. The handler hands it to
// shard.effect as a doneRec: the sole owner settles it on the spot
// (runner.settle), an owner draining in parallel records it, and the
// barrier sorts the window's records by (time, msg, idx) — the order
// the sole owner would have produced them in — and calls the same
// runner.settle on each. That replay, not luck, is what makes every
// Shards value byte-identical.
//
// Churn extends the model without touching the drains: membership
// mutations (crashes, joins, link redraws, gossip rounds) apply only
// between windows — horizon.go clips every window at the next churn-op
// instant — so within a drain the graph is as immutable as ever. The
// one churn artifact a drain can produce is a strand (an arrival at a
// node that died at an earlier barrier), and its resume op lands at or
// beyond the horizon because eligibility requires ProbeTimeout ≥ the
// lookahead.
//
// Node-indexed state (queues, Loads) needs no deferral: a message
// occupies exactly one node per event, so within a window each slot is
// touched only by its owner, in that owner's pop order — the same
// relative order global event order gives, because events at one node
// never straddle owners.

// shardOf maps a node to its owning shard: the contiguous partition
// p ∈ [s·size/shards, (s+1)·size/shards) ⇒ s, computed without
// division by the owner. O(1), no maps, exact for every shards ≤ size.
func shardOf(p metric.Point, shards, size int) int {
	return int(uint64(p) * uint64(shards) / uint64(size))
}

// doneRec is one globally-ordered side effect. at is the popped event
// that triggered it — the replay key when it is deferred — and seq the
// ordinal within that pop: a PIT answer service can complete several
// messages at once (origin-parked waiters, then possibly the answering
// lookup itself), so (at, seq) keys records uniquely and in the
// handler's own side-effect order. msg is the message the record
// concerns, which under PIT multicast need not be the popped event's.
type doneRec struct {
	at     event
	seq    int
	msg    int
	merge  bool
	strand bool         // churn: the arrival found its node dead; park it
	leader int          // merge: the aggregation carrier; strand: the idx to resume from
	finish float64      // terminal: the final service's completion time
	res    route.Result // terminal: the walker's final result
}

// shard is one owner: its event heap, its slice of the per-node tables,
// and private copies of the counters a run accumulates. With several
// owners it also carries outboxes toward the others and the side
// effects deferred out of the current window.
type shard struct {
	id     int
	h      *mathx.Heap[event]
	outbox [][]event // per destination shard, reused across windows
	done   []doneRec // deferred side effects, in pop (= event) order
	// panicked is a handler panic caught during this owner's drain.
	panicked error

	// agg is this owner's slice of the aggregation state: one key's
	// pending service at one owned node. Nil unless aggregating.
	agg map[aggKey]aggEntry

	// pit is this owner's slice of the PIT state: the interests pending
	// at owned nodes, as slots of pitSlab; pitFree lists the slots whose
	// interest was consumed, for the next plant to reuse. A waiter parks
	// at one owned node, so its suppression, timeout, and release all pop
	// here. Nil unless ModeLivePIT (pit.go).
	pit     map[aggKey]int32
	pitSlab []pitEntry
	pitFree []int32

	// Per-owner accumulators, folded into Outcome when the run ends.
	services      int
	maxQueueDepth int
	makespan      float64
	suppressed    int
	fanout        int
	expired       int
	arriving      int // handoffs headed here, counted during the merge

	// Telemetry (nil = disabled): the owner's private recorder view,
	// written only while this owner is running, plus scratch for the
	// window's wall-clock profile, read back at the window epilogue.
	telView   *telemetry.View
	drainSecs float64
	winEvents int
}

// shardSet is the owners of one run plus the barrier-side scratch
// buffers, all reused across windows.
type shardSet struct {
	shards []*shard
	size   int       // node count, the shardOf denominator
	moved  []event   // cross-shard handoffs being merged
	recs   []doneRec // deferred side effects being merged
	active []*shard  // shards with work below the current horizon
}

// newShardSet partitions the node set among n owners. Called after the
// recorder's BeginRun, so the owners' views belong to this run.
func newShardSet(r *runner, n int) *shardSet {
	s := &shardSet{
		shards: make([]*shard, n),
		size:   r.g.Size(),
		active: make([]*shard, 0, n),
	}
	per := len(r.msgs)/n + 1
	for i := range s.shards {
		sh := &shard{id: i, h: newEventHeap(per), outbox: make([][]event, n)}
		if r.cfg.Mode.Aggregate() {
			sh.agg = make(map[aggKey]aggEntry)
		}
		if r.cfg.Mode.PIT() {
			sh.pit = make(map[aggKey]int32)
		}
		if r.tel != nil {
			sh.telView = r.tel.View(i)
		}
		s.shards[i] = sh
	}
	if r.tel != nil && n > 1 {
		// The occupancy histogram's range bounds events per shard-window,
		// which a hot window can push into the hops-per-message regime —
		// 2^20 buckets it log-scale. A one-owner run has no windows to
		// profile and leaves the scheduler profile to EndRun's default.
		r.tel.SchedInit(n, 1<<20)
	}
	return s
}

// owner returns the shard owning node p.
func (s *shardSet) owner(p metric.Point) *shard {
	if len(s.shards) == 1 {
		return s.shards[0]
	}
	return s.shards[shardOf(p, len(s.shards), s.size)]
}

// nextTime returns the earliest pending instant across every shard
// heap, the pending injection set, and the churn op queue — the next
// window's start — or false when the simulation is drained. Churn ops
// count because gossip rounds outlive traffic: the loop must keep
// opening (possibly event-free) windows until membership quiesces.
func (s *shardSet) nextTime(r *runner) (float64, bool) {
	t, ok := 0.0, false
	if r.pend.Len() > 0 {
		t, ok = r.pend.Peek().Time, true
	}
	if r.churn != nil && r.churn.ops.Len() > 0 {
		if ot := r.churn.ops.Peek().time; !ok || ot < t {
			t, ok = ot, true
		}
	}
	for _, sh := range s.shards {
		if sh.h.Len() > 0 && (!ok || sh.h.Peek().time < t) {
			t, ok = sh.h.Peek().time, true
		}
	}
	return t, ok
}

// drainWindow runs every shard with work below the horizon
// concurrently, one goroutine per busy shard (the first busy shard
// runs on the caller's goroutine). Shards only read immutable run
// state and write shard-owned state, so the window needs no locks;
// the WaitGroup is the whole synchronization story. A handler that
// panics ends the run with r.err instead of the process: a panic on a
// bare goroutine cannot be recovered by any caller of Run.
func (s *shardSet) drainWindow(r *runner, horizon float64) {
	s.active = s.active[:0]
	for _, sh := range s.shards {
		if sh.h.Len() > 0 && sh.h.Peek().time < horizon {
			s.active = append(s.active, sh)
		}
	}
	if len(s.active) == 0 {
		return
	}
	var wg sync.WaitGroup
	for _, sh := range s.active[1:] {
		wg.Add(1)
		go func(sh *shard) {
			defer wg.Done()
			sh.drainGuarded(r, horizon)
		}(sh)
	}
	s.active[0].drainGuarded(r, horizon)
	wg.Wait()
	for _, sh := range s.active {
		if sh.panicked != nil && r.err == nil {
			r.err = sh.panicked
		}
	}
	if r.tel != nil {
		s.profileWindow(r)
	}
}

// profileWindow folds one window's wall-clock profile into the
// recorder, at the sequential point right after the drains joined:
// each active shard's drain time, its wait for the window's slowest
// shard (the barrier cannot start before that one), and the events it
// processed.
func (s *shardSet) profileWindow(r *runner) {
	var slowest float64
	for _, sh := range s.active {
		if sh.drainSecs > slowest {
			slowest = sh.drainSecs
		}
	}
	for _, sh := range s.active {
		r.tel.SchedWindow(sh.id, sh.drainSecs, slowest-sh.drainSecs, sh.winEvents)
		sh.drainSecs, sh.winEvents = 0, 0
	}
	r.tel.SchedWindowDone()
}

// drainGuarded is drain with a panic turned into the shard's own error
// slot (shard-owned, so the window still needs no locks), carrying
// what a crash dump would: which owner, which window, what was thrown.
func (sh *shard) drainGuarded(r *runner, horizon float64) {
	defer func() {
		if p := recover(); p != nil {
			sh.panicked = fmt.Errorf("engine: shard %d panicked draining the window below t=%g: %v", sh.id, horizon, p)
		}
	}()
	sh.drain(r, horizon)
}

// drain processes the shard's events strictly below the horizon.
func (sh *shard) drain(r *runner, horizon float64) {
	if sh.telView != nil {
		sh.drainProfiled(r, horizon)
		return
	}
	for sh.h.Len() > 0 && sh.h.Peek().time < horizon {
		sh.process(r, sh.h.Pop())
	}
}

// drainProfiled is drain with the wall clock running — a separate
// loop so the disabled path pays no time.Now calls and no counting.
func (sh *shard) drainProfiled(r *runner, horizon float64) {
	started := time.Now()
	n := 0
	for sh.h.Len() > 0 && sh.h.Peek().time < horizon {
		sh.process(r, sh.h.Pop())
		n++
	}
	sh.drainSecs = time.Since(started).Seconds()
	sh.winEvents = n
}

// effect hands one globally-ordered side effect to the driver's
// discipline: the sole owner is already in global event order and
// settles it now; an owner draining a window records it for the
// barrier.
func (sh *shard) effect(r *runner, rec doneRec) {
	if len(r.shards.shards) == 1 {
		r.settle(rec)
		return
	}
	sh.done = append(sh.done, rec)
}

// settle applies one side effect. Calls arrive in global
// (time, msg, idx, seq) order under both drivers, so doneAt, followers,
// Latencies, Aggregated, the churn-op sequence numbers and the
// Completed-hook call sequence evolve identically.
func (r *runner) settle(rec doneRec) {
	msg := rec.msg
	switch {
	case rec.strand:
		r.strand(msg, rec.leader, rec.at.time)
	case rec.merge:
		// A same-key lookup was queued or in service at the arrival's
		// node: ride along. Whether it settles now or waits on the carrier
		// depends on doneAt, which only event order can answer.
		r.aggMsgs.merged[msg] = true
		r.out.Aggregated++
		if r.tel != nil {
			r.tel.Merge(msg, rec.at.time)
		}
		if r.doneAt[rec.leader] < 0 {
			r.aggMsgs.followers[rec.leader] = append(r.aggMsgs.followers[rec.leader], msg)
			return
		}
		// The carrier already completed (its later hops resolved before
		// this arrival was popped); settle immediately at the carrier's
		// completion time.
		lr := r.out.Results[rec.leader]
		fr := r.walkers[msg].Result()
		fr.Delivered = lr.Delivered
		fr.Target = lr.Target
		r.completeLive(msg, r.doneAt[rec.leader], fr)
	default:
		r.completeLive(msg, rec.finish, rec.res)
	}
}

// process handles one live arrival: the message joins the node's FIFO,
// is served for serviceTime ticks, and decides its next hop at that
// service, reading live state. In aggregate mode the arrival may
// instead coalesce onto a pending same-key service and never occupy the
// queue at all; PIT mode has its own arrival discipline (pit.go). The
// walker already exists — admission created it (runner.admit).
func (sh *shard) process(r *runner, a event) {
	if sh.pit != nil {
		sh.processPIT(r, a)
		return
	}
	node := r.pos[a.msg]
	if r.churn != nil && !r.g.Alive(node) {
		// The node died since this hop was scheduled: the message strands
		// here and resumes after the probe window (churn.go).
		sh.effect(r, doneRec{at: a, msg: a.msg, strand: true, leader: a.idx})
		return
	}
	if sh.agg != nil {
		if e, ok := sh.agg[aggKey{node: node, key: r.msgs[a.msg].Key}]; ok && a.time < e.finish {
			sh.effect(r, doneRec{at: a, msg: a.msg, merge: true, leader: e.leader})
			return
		}
	}
	start, finish, depth := sh.serveAt(r, node, a.time)
	if sh.agg != nil {
		sh.agg[aggKey{node: node, key: r.msgs[a.msg].Key}] = aggEntry{leader: a.msg, finish: finish}
	}
	w := r.walkers[a.msg]
	stepped := w.Step()
	if sh.telView != nil {
		// The flight hop append is safe because this shard owns the
		// message for this event (same ownership argument as r.pos).
		sh.telView.Hop(a.msg, node, a.time, start, finish, depth, hopDecision(w))
	}
	if stepped {
		r.pos[a.msg] = w.At()
		sh.push(r, event{time: finish, msg: a.msg, idx: a.idx + 1})
		return
	}
	sh.effect(r, doneRec{at: a, msg: a.msg, finish: finish, res: w.Result()})
}

// serveAt runs one FIFO service at an owned node for an arrival at
// time `at`, accounting it to the owner's counters and — when a
// congestion signal exists to read it — as one unit of charged load,
// visible to every later forwarding decision.
func (sh *shard) serveAt(r *runner, node metric.Point, at float64) (start, finish float64, depth int) {
	start, finish, depth = r.queues[node].serve(at, r.serviceTime)
	if depth > sh.maxQueueDepth {
		sh.maxQueueDepth = depth
	}
	r.out.Loads[node]++
	sh.services++
	if finish > sh.makespan {
		sh.makespan = finish
	}
	if sh.telView != nil {
		sh.telView.Service(at, depth)
	}
	if c := r.cong; c != nil {
		c.charged[node]++
		c.total++
		c.now = at
	}
	return start, finish, depth
}

// push routes e — message e.msg arriving at r.pos[e.msg], which the
// caller has just set — to that node's owner: this shard's heap, or the
// outbox toward another's, whose heap is being drained concurrently.
// Cross-shard events always carry time ≥ the window horizon (they are
// service finishes of events popped at or after the window start), so
// merging them at the barrier preserves the lookahead.
func (sh *shard) push(r *runner, e event) {
	if d := r.shards.owner(r.pos[e.msg]); d == sh {
		sh.h.Push(e)
	} else {
		sh.outbox[d.id] = append(sh.outbox[d.id], e)
	}
}

// barrier is the window's sequential epilogue: merge cross-shard
// handoffs in event order, then settle the deferred side effects in
// event order. After it returns the run state is byte-identical to a
// sole owner having just processed the same events.
func (s *shardSet) barrier(r *runner) {
	// Handoffs: collect, order by (time, msg, idx), admit to the
	// destination heaps. The destination is recomputed from the
	// message's position — the handoff event *is* "msg arrives at
	// pos[msg]". Heap admission is order-independent (the pop sequence
	// is a function of the multiset), but the deterministic merge keeps
	// the structure honest if the heap is ever swapped for something
	// order-sensitive, and costs one sort of a small batch.
	s.moved = s.moved[:0]
	for _, sh := range s.shards {
		sent := 0
		for d := range sh.outbox {
			sent += len(sh.outbox[d])
			s.moved = append(s.moved, sh.outbox[d]...)
			sh.outbox[d] = sh.outbox[d][:0]
		}
		if r.tel != nil && sent > 0 {
			r.tel.SchedHandoffs(sh.id, sent)
		}
	}
	sort.Slice(s.moved, func(i, j int) bool { return eventLess(s.moved[i], s.moved[j]) })
	for _, e := range s.moved {
		s.owner(r.pos[e.msg]).arriving++
	}
	for _, sh := range s.shards {
		if sh.arriving > 0 {
			// One growth per batch, not one per push: the next window's
			// drain then runs allocation-free on the heap side.
			sh.h.Reserve(sh.h.Len() + sh.arriving)
			sh.arriving = 0
		}
	}
	for _, e := range s.moved {
		s.owner(r.pos[e.msg]).h.Push(e)
	}

	// Deferred side effects, in global event order. Unlocked injections
	// go to r.pend: every deferral here carries finish ≥ horizon, so they
	// belong to later windows by the lookahead argument.
	s.recs = s.recs[:0]
	for _, sh := range s.shards {
		s.recs = append(s.recs, sh.done...)
		sh.done = sh.done[:0]
	}
	sort.Slice(s.recs, func(i, j int) bool {
		if eventLess(s.recs[i].at, s.recs[j].at) {
			return true
		}
		if eventLess(s.recs[j].at, s.recs[i].at) {
			return false
		}
		return s.recs[i].seq < s.recs[j].seq
	})
	if r.churn != nil {
		// One ops-heap growth for the whole batch of strand parks, not
		// one per push; the replay loop below then runs allocation-free
		// on the op-queue side.
		strands := 0
		for i := range s.recs {
			if s.recs[i].strand {
				strands++
			}
		}
		if strands > 0 {
			r.churn.ops.Reserve(r.churn.ops.Len() + strands)
		}
	}
	for _, rec := range s.recs {
		r.settle(rec)
	}
}

// fold adds the owners' accumulators into the outcome, once, when the
// run ends (nothing reads these totals while it runs).
func (s *shardSet) fold(out *Outcome) {
	for _, sh := range s.shards {
		out.Services += sh.services
		out.Suppressed += sh.suppressed
		out.MulticastFanout += sh.fanout
		out.PITExpired += sh.expired
		if sh.maxQueueDepth > out.MaxQueueDepth {
			out.MaxQueueDepth = sh.maxQueueDepth
		}
		if sh.makespan > out.Makespan {
			out.Makespan = sh.makespan
		}
	}
}
