package engine

// This file is the two drivers of the live loop. Both run the same
// handlers (shard.go, pit.go) over the same state and admit injections
// through the same runner.admit; they differ only in who pops which
// event when. Config.Plan (mode.go) picks one: Run dispatches to
// runWindows when the plan resolved to PlanLiveSharded, to step
// otherwise.

// injectionLess orders pending injections by (time, msg) — the order
// of the (time, msg, 0) first arrivals they become, since no message is
// injected twice.
func injectionLess(a, b Injection) bool {
	if a.Time != b.Time {
		return a.Time < b.Time
	}
	return a.Msg < b.Msg
}

// step advances a one-owner run by the next thing in global event
// order — a churn op, an injection, or an event — and reports false
// once nothing is left. An injection is admitted exactly when its first
// arrival (time, msg, 0) would be the next event, so walker creation,
// placement lookups and the decay cadence read the state of that
// instant — which is what lets this driver serve the configurations
// whose admissions read state that events mutate (congestion feedback,
// cache-on-path, closed-loop aggregation, fast-probe churn). Churn ops
// win ties, so a message event at t sees the graph and membership state
// as of t, and the loop runs until both traffic and gossip quiesce.
func (r *runner) step() bool {
	sh := r.shards.shards[0]
	due, busy := r.pend.Len() > 0, sh.h.Len() > 0
	var t float64
	if busy {
		t = sh.h.Peek().time
	}
	if due {
		inj := r.pend.Peek()
		due = !busy || eventLess(event{time: inj.Time, msg: inj.Msg}, sh.h.Peek())
		if due {
			t = inj.Time
		}
	}
	switch {
	case r.churn.nextOpBefore(t, !due && !busy):
		r.churnOp(r.churn.ops.Pop())
	case due:
		// The first arrival is by construction the next event — it
		// precedes the heap's top and admission scheduled nothing else —
		// so it is processed without a round trip through the heap.
		if a, ok := r.admit(r.pend.Pop()); ok {
			sh.process(r, a)
		}
	case busy:
		sh.process(r, sh.h.Pop())
	default:
		return false
	}
	return true
}

// runWindows drives k owners: pick the earliest pending instant, admit
// every injection below that window's horizon, drain all shards in
// parallel below it, then barrier. The horizon is one service time past
// the window start — the engine's lookahead: every successor of a
// processed event finishes at least one service time later, so nothing
// processed this window can add same-window work anywhere, and every
// injection a completion unlocks belongs to a later window too
// (completion times are successor finish times).
//
// Admitting a window's injections ahead of its events is the one
// scheduling difference from step, and it is unobservable: for a
// shardable configuration walker creation is a pure function of the
// graph, the placement, and the message (no congestion signal, no cache
// churn), consumes no rng, and touches no queue state. Born-delivered
// lookups complete on the spot; their closed-loop successors can land
// back under the horizon (a think time of zero re-injects at the same
// instant), so admission keeps consuming r.pend until it clears the
// window.
//
// With churn attached the membership layer becomes a window barrier:
// churn ops due at or before the window start apply here, sequentially,
// before any admission or drain (ops win ties, as in step), and the
// horizon is clipped at the next pending op instant, so the graph and
// membership state are immutable while the shards drain — and an
// admitted walker reads exactly the graph step's in-order admission
// would have. The one op kind born during a drain — a strand's
// probe-timeout resumption — is deferred and settled at the barrier in
// global event order, and lands at t + ProbeTimeout ≥ horizon by the
// eligibility gate (Config.Plan requires ProbeTimeout ≥ the lookahead),
// so it never belongs to the window that created it.
func (r *runner) runWindows() {
	s := r.shards
	for r.err == nil {
		w, ok := s.nextTime(r)
		if !ok {
			return
		}
		if r.churn != nil {
			// Barrier-time membership mutation: crashes, joins, link
			// redraws, rumor rounds, and strand resumptions due at or
			// before the window start run now, on one goroutine, against
			// quiescent shard heaps. Events they push carry time ≥ w.
			for r.churn.ops.Len() > 0 && r.churn.ops.Peek().time <= w {
				r.churnOp(r.churn.ops.Pop())
			}
		}
		horizon := w + r.serviceTime
		if r.churn != nil && r.churn.ops.Len() > 0 && r.churn.ops.Peek().time < horizon {
			// Clip the window at the next churn-op instant: nothing may
			// mutate membership while the shards drain, and the op applies
			// at the next window's start under the ops-first tie rule.
			horizon = r.churn.ops.Peek().time
		}
		for r.err == nil && r.pend.Len() > 0 && r.pend.Peek().Time < horizon {
			if a, ok := r.admit(r.pend.Pop()); ok {
				r.pushEvent(a)
			}
		}
		if r.err != nil {
			return
		}
		s.drainWindow(r, horizon)
		if r.err != nil {
			return // a shard panicked: its state is not fit to barrier
		}
		s.barrier(r)
	}
}
