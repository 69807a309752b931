package route

import (
	"fmt"

	"repro/internal/metric"
	"repro/internal/rng"
)

// Walker is the resumable form of a search: the same greedy walk
// Route/RouteAny run to completion, exposed one hop at a time. Each
// Step makes exactly the forwarding decision the whole-path search
// would have made at that node — same candidate scoring, same dead-end
// recovery, same rng consumption — so driving a Walker to completion
// is byte-identical to calling Route.
//
// The single-step form exists for the discrete-event engine
// (internal/engine): a message parked in a node's queue calls Step when
// its service completes, so the forwarding decision can read *live*
// congestion state through Options.Congestion instead of a snapshot
// frozen when the whole path was computed. Route and RouteAny are thin
// loops over Step.
//
// A Walker is single-use and not safe for concurrent use; its rng
// source must not be shared with another in-flight Walker.
type Walker struct {
	r       *Router
	src     *rng.Source
	targets []metric.Point
	cur     metric.Point
	res     Result
	done    bool
	last    StepKind

	// RandomReroute state.
	reroutes int

	// Backtrack state: the last BacktrackMemory visited nodes, each with
	// the neighbours already tried from it.
	history []walkFrame

	// spill is bestNeighbor's scratch once a node's degree has
	// outgrown its stack buffer; nil (no allocation) until then. A
	// pointer rather than a slice header keeps the Walker — one heap
	// object per message — in its 160-byte size class.
	spill *[]metric.Point
}

// walkFrame is one remembered node of the backtracking policy. The
// tried set is a small slice scanned linearly: it holds at most the
// node's degree, membership is the only operation, and a slice keeps
// the per-hop path free of map allocations (a frame that never retries
// allocates nothing at all).
type walkFrame struct {
	at    metric.Point
	tried []metric.Point
}

// Walker starts a resumable search from `from` toward the nearest live
// member of `targets` (a single-element set is the plain
// single-destination search; Options.Targets precedence is Route's
// affair — the set passed here is the set walked). The returned Walker
// has already visited `from` (it appears in the traced path); if
// `from` is itself a target the search is born delivered and Step
// returns false immediately.
func (r *Router) Walker(source *rng.Source, from metric.Point, targets []metric.Point) (*Walker, error) {
	if !r.g.Alive(from) {
		return nil, fmt.Errorf("route: origin %d is not a live node", from)
	}
	tset, err := r.liveTargets(targets)
	if err != nil {
		return nil, err
	}
	if r.opt.Sidedness == OneSided {
		if r.oriented == nil {
			return nil, fmt.Errorf("route: one-sided routing needs an oriented (1-D) space, not %s",
				r.g.Space().Name())
		}
		if len(tset) > 1 {
			return nil, fmt.Errorf("route: one-sided routing supports a single target, got %d live replicas",
				len(tset))
		}
	}
	w := &Walker{r: r, src: source, targets: tset, cur: from, res: Result{Target: -1}}
	if r.opt.TracePath {
		// Typical searches finish in O(lg² n) hops — well under this —
		// so one up-front slab keeps the per-hop trace append from
		// reallocating mid-walk; longer walks just fall back to growth.
		w.res.Path = make([]metric.Point, 0, 16)
	}
	r.trace(&w.res, from)
	if r.opt.DeadEnd == Backtrack {
		w.history = make([]walkFrame, 0, r.opt.BacktrackMemory+1)
		w.push(from)
	}
	if isTarget(from, tset) {
		w.res.Delivered = true
		w.res.Target = from
		w.done = true
	}
	return w, nil
}

// StepKind labels the kind of move a Step just made, for observers
// (the telemetry flight recorder) that tag forwarding decisions.
// Congestion-penalized detours are not a distinct kind: the scored
// greedy move preserves strict metric progress, so a detour shows up
// as a longer greedy path, not as a different step.
type StepKind uint8

const (
	// StepNone: no move yet (before the first Step, or a Step that
	// terminated without moving).
	StepNone StepKind = iota
	// StepGreedy is a forward move to the best-scoring neighbour —
	// the greedy move of both the plain and the backtracking policy.
	StepGreedy
	// StepBacktrack is a backward move to the most recently
	// remembered node.
	StepBacktrack
	// StepReroute is a random re-route jump out of a dead end.
	StepReroute
)

// LastStep reports the kind of move the most recent Step made. One
// byte of bookkeeping, written unconditionally — cheaper than a
// branch, and it keeps the walker oblivious to whether anyone is
// watching.
func (w *Walker) LastStep() StepKind { return w.last }

// At returns the node the search currently occupies: the node that
// would forward the message on the next Step, or — once Done — the
// node the search ended on (the delivering target, or the node it was
// stuck at).
func (w *Walker) At() metric.Point { return w.cur }

// Done reports whether the search has ended; once true, Result is
// final and further Steps are no-ops.
func (w *Walker) Done() bool { return w.done }

// Result returns the search outcome accumulated so far. It is final
// once Done reports true; before that it is the in-flight prefix
// (useful for tracing).
func (w *Walker) Result() Result { return w.res }

// Visited returns the nodes the search has occupied so far, in visit
// order (backtracking revisits included) — the reverse-path
// bookkeeping the engine's answer leg retraces. It requires TracePath
// (the engine forces it on in live modes) and is empty otherwise. The
// slice aliases the walker's trace: callers must treat it as
// read-only, and it stays valid only while the walker does not Step.
func (w *Walker) Visited() []metric.Point { return w.res.Path }

// Step advances the search by at most one hop: a greedy forward move,
// a random re-route jump, or a backward backtracking move, whichever
// the configured dead-end policy prescribes at the current node. It
// returns true while the search is still in flight; false once the
// outcome is final (delivered on the hop just taken, or failed with no
// move). Every non-terminal Step moves to exactly one new node —
// Result.Path grows by one entry per Step when tracing — which is the
// contract the discrete-event engine charges queue services against.
func (w *Walker) Step() bool {
	if w.done {
		return false
	}
	if w.r.opt.DeadEnd == Backtrack {
		return w.stepBacktrack()
	}
	return w.stepGreedy()
}

// stepGreedy is one iteration of the greedy loop with the Terminate or
// RandomReroute recovery policy.
func (w *Walker) stepGreedy() bool {
	r := w.r
	if w.res.Hops >= r.opt.MaxHops {
		w.done = true
		w.last = StepNone
		return false
	}
	if next, ok := w.bestNeighbor(nil); ok {
		w.last = StepGreedy
		w.move(next)
		return !w.done
	}
	// Dead end. Hand the message to a random live node, if the policy
	// and budget allow; the hand-off itself costs a hop.
	if r.opt.DeadEnd != RandomReroute || w.reroutes >= r.opt.MaxReroutes || w.res.Hops >= r.opt.MaxHops {
		w.done = true
		w.last = StepNone
		return false
	}
	next, ok := r.g.RandomAlive(w.src)
	if !ok {
		w.done = true
		w.last = StepNone
		return false
	}
	w.reroutes++
	w.res.Reroutes++
	w.last = StepReroute
	w.move(next)
	return !w.done
}

// stepBacktrack is one iteration of the §6 backtracking loop: a
// forward move to the best untried neighbour, or a backward move to
// the most recently remembered node.
func (w *Walker) stepBacktrack() bool {
	r := w.r
	if w.res.Hops >= r.opt.MaxHops {
		w.done = true
		w.last = StepNone
		return false
	}
	top := &w.history[len(w.history)-1]
	if next, ok := w.bestNeighbor(top.tried); ok {
		top.tried = append(top.tried, next)
		w.last = StepGreedy
		w.move(next)
		if !w.done {
			w.push(w.cur)
		}
		return !w.done
	}
	// Dead end: drop the stuck node and back up to the most recent
	// remembered node, charging one hop for the backward move. Nodes on
	// the history were visited before, so a backward move can never
	// deliver.
	if len(w.history) <= 1 {
		w.done = true
		w.last = StepNone
		return false
	}
	w.history = w.history[:len(w.history)-1]
	w.cur = w.history[len(w.history)-1].at
	w.res.Hops++
	w.res.Backtracks++
	w.last = StepBacktrack
	w.r.trace(&w.res, w.cur)
	return true
}

// move advances to next, charging one hop and detecting delivery.
func (w *Walker) move(next metric.Point) {
	w.cur = next
	w.res.Hops++
	w.r.trace(&w.res, next)
	if isTarget(next, w.targets) {
		w.res.Delivered = true
		w.res.Target = next
		w.done = true
	}
}

// push remembers a visited node for the backtracking policy, evicting
// the oldest once the paper's memory bound is reached.
func (w *Walker) push(p metric.Point) {
	w.history = append(w.history, walkFrame{at: p})
	if len(w.history) > w.r.opt.BacktrackMemory {
		w.history = w.history[1:]
	}
}
