package engine

import (
	"repro/internal/metric"
	"repro/internal/route"
	"repro/internal/telemetry"
)

// This file is ModeLivePIT: per-node pending-interest tables and the
// answer leg. The handlers are shard methods like the rest of the live
// loop (shard.go): they run on the node's owner under either driver,
// and hand globally-ordered side effects to shard.effect.
//
// The request leg works like plain live mode — one FIFO service per
// hop, the walker deciding the next hop at each service — with two
// differences. Every request service plants (or refreshes) a pending
// interest at its node, keyed (node, key), expiring PITTimeout after
// the service finishes. And a request *arriving* at a node whose
// same-key interest is still pending does not enter the queue at all:
// it parks as a waiter on that entry, with its own timeout event in
// case the answer never comes. That suppression is the network-wide
// generalization of per-queue aggregation — the two requests need not
// be queued at the same instant, only within an interest lifetime.
// Suppression is once per lifetime per lookup: a wait that expires
// marks its message expiredOnce, and such a lookup forwards past every
// later pending interest (while still planting its own). Without that
// rule a retrying waiter could park behind another stranded carrier
// and chain timeout upon timeout; with it, the protocol's worst lawful
// wait is exactly one interest lifetime.
//
// Delivery flips the message onto its answer leg: the answer retraces
// the reverse of the request path hop by hop, charging the same FIFO
// capacity (one service per node, the delivery target and the origin
// included). Each answer service consumes the node's pending interest
// and multicasts to its waiters: every waiter forks its own answer leg
// from the release point back down its own partial path to its origin.
// A lookup's latency is measured to *answer receipt* — the finish of
// the answer service at its origin — not to delivery.
//
// Event encoding. Request and answer arrivals use the usual
// nonnegative monotone idx chain (each service pushes the popped
// idx+1; a released waiter continues from its suppressed arrival's
// idx). A lookup parks at most once: its wait ends by answer (answering
// is set, and an answering lookup is never a request again) or by
// expiry (expiredOnce is set, and such a lookup is never suppressed
// again) — TestPITLookupParksAtMostOnce holds the ledger to it. So a
// lookup has exactly one timeout event, idx = -1 — negative so it
// collides with nothing — and one bit of wait state, pitMsgState.parked:
// set at the park, cleared by whichever of release and timeout comes
// first, and a timeout that finds it clear (the answer won) is dropped.
// parked[m] is owner-local although the slice is shared: a waiter parks
// at one node, so its suppression, release, and timeout all pop at that
// node's owner, and nobody else touches its bit.
//
// Storage. Interests are short-lived and plentiful — one per request
// service, consumed by the returning answer — so an owner keeps them in
// a slab: shard.pit maps (node, key) to a slot of shard.pitSlab, and a
// consumed interest's slot goes onto shard.pitFree with its waiter
// list's capacity intact. The slab grows only while every slot is
// pending, so it ends a run as long as the owner's peak of concurrently
// pending interests (TestPITSlabRecycles), and a steady-state request
// hop allocates nothing here. A slab pointer is good only until the
// next plant.
//
// Shard eligibility. PIT runs stay shardable even under closed-loop
// schedules (unlike aggregation, see Config.Plan): every completion —
// leader at its origin's answer service, waiter at its release
// service or its origin's answer service — carries a service finish
// time, which lies at or beyond the window horizon, so the injections
// it unlocks always belong to later windows. One answer service can
// complete several messages — origin-parked waiters plus possibly the
// answering lookup itself — so their records carry a within-pop ordinal
// that keeps a barrier replay in the handler's own side-effect order.

// pitEntry is one slot of an owner's interest slab (shard.pitSlab):
// while shard.pit maps a (node, key) to it, a pending interest — when it
// lapses and the suppressed lookups waiting on the answer; on
// shard.pitFree, spare capacity for the next one. The waiter list may
// hold stale entries (waits ended by timeout); refreshes compact it and
// releases check pitMsgState.parked, so staleness costs nothing but
// slack in the PITWaiters bound.
type pitEntry struct {
	expiry  float64
	waiters []int
	// owner is the lookup whose service most recently planted or
	// refreshed this interest. A backtracking walk can revisit a node
	// it already forwarded through; suppressing it against its own
	// interest would park it waiting for itself until the timeout, so
	// the owner is exempt.
	owner int
}

// processPIT is the PIT-mode arrival dispatcher.
func (sh *shard) processPIT(r *runner, a event) {
	m, p := a.msg, r.pitMsgs
	if a.idx < 0 {
		// The lookup's one timeout: stale if a release ended the wait.
		if !p.parked[m] {
			return
		}
		p.parked[m] = false
		p.expiredOnce[m] = true
		sh.expired++
		if sh.telView != nil {
			sh.telView.PITExpire(a.time)
		}
		if r.churn != nil && !r.g.Alive(r.pos[m]) {
			// The wait node died under the waiter: no service can happen
			// here, so the re-forward goes through the strand discipline —
			// one more probe window, then a serviceless step out.
			sh.effect(r, doneRec{at: a, msg: m, strand: true, leader: p.waitIdx[m]})
			return
		}
		// The wait is over: re-forward from the wait node, skipping the
		// suppression check — the entry here demonstrably failed to
		// produce an answer within an interest lifetime. The one request
		// service that has to look its interest up: every other comes
		// through the suppression check below, which already has.
		sh.servePIT(r, a, p.waitIdx[m], sh.pitSlot(r.pos[m], r.msgs[m].Key))
		return
	}
	if r.churn != nil && !r.g.Alive(r.pos[m]) {
		// Request or answer, the arrival found its node dead: strand.
		// An interest pending here will never multicast — its waiters
		// expire on their own timeouts, the waiters-must-expire rule.
		sh.effect(r, doneRec{at: a, msg: m, strand: true, leader: a.idx})
		return
	}
	if p.answering[m] {
		sh.serveAnswer(r, a)
		return
	}
	slot := sh.pitSlot(r.pos[m], r.msgs[m].Key)
	if slot >= 0 && !p.expiredOnce[m] {
		if e := &sh.pitSlab[slot]; e.owner != m && a.time < e.expiry && len(e.waiters) < r.cfg.PITWaiters {
			// A same-key interest is pending here: park instead of
			// forwarding, with a timeout in case the answer never comes.
			p.parked[m] = true
			p.waitIdx[m] = a.idx
			e.waiters = append(e.waiters, m)
			sh.suppressed++
			if sh.telView != nil {
				sh.telView.Suppress(a.time)
			}
			// PITTimeout may be shorter than the lookahead, so the timeout
			// can land inside the current window — safe, because it fires
			// at the wait node: same owner, same heap, same pop order as
			// under one owner.
			sh.h.Push(event{time: a.time + r.cfg.PITTimeout, msg: m, idx: -1})
			return
		}
	}
	sh.servePIT(r, a, a.idx, slot)
}

// pitSlot returns the slab slot of the interest pending at (node, key),
// or -1.
func (sh *shard) pitSlot(node, key metric.Point) int32 {
	if slot, ok := sh.pit[aggKey{node: node, key: key}]; ok {
		return slot
	}
	return -1
}

// servePIT services message a.msg's request arrival at its current
// node: plant or refresh the interest, step the walker, and either
// forward, fail, or flip onto the answer leg. a is the popped event
// (the effect's replay key); fwdIdx is the idx the forward chain
// continues from — a.idx normally, the suppressed arrival's idx on a
// timeout re-forward; slot is the interest already pending here, as the
// caller's pitSlot found it, so a request hop hashes (node, key) once.
func (sh *shard) servePIT(r *runner, a event, fwdIdx int, slot int32) {
	m := a.msg
	node := r.pos[m]
	start, finish, depth := sh.serveAt(r, node, a.time)
	if slot < 0 {
		// Plant: a recycled slot if the owner has one, else a new one.
		if n := len(sh.pitFree); n > 0 {
			slot, sh.pitFree = sh.pitFree[n-1], sh.pitFree[:n-1]
		} else {
			slot = int32(len(sh.pitSlab))
			sh.pitSlab = append(sh.pitSlab, pitEntry{})
		}
		sh.pit[aggKey{node: node, key: r.msgs[m].Key}] = slot
	}
	e := &sh.pitSlab[slot]
	if len(e.waiters) > 0 {
		e.waiters = liveWaiters(r.pitMsgs, e.waiters)
	}
	e.expiry = finish + r.cfg.PITTimeout
	e.owner = m
	w := r.walkers[m]
	stepped := w.Step()
	if sh.telView != nil {
		sh.telView.Hop(m, node, a.time, start, finish, depth, hopDecision(w))
	}
	if stepped {
		r.pos[m] = w.At()
		sh.push(r, event{time: finish, msg: m, idx: fwdIdx + 1})
		return
	}
	res := w.Result()
	if !res.Delivered {
		sh.effect(r, doneRec{at: a, msg: m, finish: finish, res: res})
		return
	}
	// Delivered: flip onto the answer leg. The generation service
	// happens at the target, which may belong to another owner; the
	// event carries a service finish ≥ the window horizon, so the
	// hand-off is as safe as a forwarding hop.
	r.spawnAnswer(m, finish, res)
	sh.push(r, event{time: finish, msg: m, idx: fwdIdx + 1})
}

// spawnAnswer flips a delivered lookup onto its answer leg: the
// reverse of the full visited path, starting with a generation service
// at the delivery target itself. Delivery, not answer receipt, is the
// popularity signal, so cache-on-path observes here (caching runs have
// one owner, so the shared placement is never touched from a drain).
func (r *runner) spawnAnswer(m int, finish float64, res route.Result) {
	if r.caching {
		r.cfg.Placement.Observe(r.msgs[m].Key, res.Path)
		if r.tel != nil {
			r.cacheDelta(finish)
		}
	}
	p := r.pitMsgs
	p.answering[m] = true
	p.ansPath[m] = res.Path
	p.ansAt[m] = len(res.Path) - 1
	// The delivering step ended the walk without a service at the
	// target (live-mode discipline: delivery is decided during the
	// penultimate node's service), so the generation service is the
	// target's first and the answer leg is one service per path node.
	r.pos[m] = res.Path[len(res.Path)-1]
	p.ansTarget[m] = res.Target
}

// serveAnswer services one answer arrival: the answer passes through
// this node, satisfying its pending interest, and moves one hop down
// the reverse path — or, at index -1, has reached the lookup's origin:
// receipt, the completion instant. Satisfying the interest multicasts
// to every still-valid waiter: each forks its own answer leg from the
// release point back down its partial path (waiter state is owned here,
// since waiters park at this node; released legs hop away through
// push). A waiter suppressed at its own origin has no leg to retrace —
// this service is its receipt.
func (sh *shard) serveAnswer(r *runner, a event) {
	m, p := a.msg, r.pitMsgs
	node := r.pos[m]
	start, finish, depth := sh.serveAt(r, node, a.time)
	if sh.telView != nil {
		sh.telView.Hop(m, node, a.time, start, finish, depth, telemetry.DecisionAnswer)
	}
	seq := 0
	pk := aggKey{node: node, key: r.msgs[m].Key}
	if slot, ok := sh.pit[pk]; ok {
		// The interest is consumed; its slot, waiter capacity and all,
		// goes back to the owner.
		delete(sh.pit, pk)
		sh.pitFree = append(sh.pitFree, slot)
		waiters := sh.pitSlab[slot].waiters
		sh.pitSlab[slot].waiters = waiters[:0]
		fan := 0
		for _, w := range waiters {
			if !p.parked[w] {
				continue // its wait already ended, by timeout
			}
			p.parked[w] = false
			fan++
			path := r.walkers[w].Result().Path
			p.answering[w], p.released[w] = true, true
			p.ansPath[w] = path
			p.ansAt[w] = len(path) - 2
			p.ansTarget[w] = p.ansTarget[m]
			if p.ansAt[w] < 0 {
				sh.effect(r, doneRec{at: a, seq: seq, msg: w, finish: finish, res: r.answerResult(w)})
				seq++
				continue
			}
			r.pos[w] = path[p.ansAt[w]]
			sh.push(r, event{time: finish, msg: w, idx: p.waitIdx[w] + 1})
		}
		if fan > 0 {
			sh.fanout += fan
			if sh.telView != nil {
				sh.telView.Multicast(finish, fan)
			}
		}
	}
	p.ansAt[m]--
	if p.ansAt[m] >= 0 {
		r.pos[m] = p.ansPath[m][p.ansAt[m]]
		sh.push(r, event{time: finish, msg: m, idx: a.idx + 1})
		return
	}
	sh.effect(r, doneRec{at: a, seq: seq, msg: m, finish: finish, res: r.answerResult(m)})
}

// answerResult is a completing lookup's final Result: its own walk so
// far, marked delivered at the answering target. For a released waiter
// that is a partial path ending at the release point — the same
// carrier-answered shape aggregation reports for coalesced lookups.
func (r *runner) answerResult(m int) route.Result {
	res := r.walkers[m].Result()
	res.Delivered = true
	res.Target = r.pitMsgs.ansTarget[m]
	return res
}

// liveWaiters compacts a waiter list in place, keeping only lookups
// still parked — at this node, since a lookup parks once.
func liveWaiters(p *pitMsgState, ws []int) []int {
	kept := ws[:0]
	for _, w := range ws {
		if p.parked[w] {
			kept = append(kept, w)
		}
	}
	return kept
}
