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

	// Backtrack state: the last BacktrackMemory visited nodes, oldest
	// first, and one stack holding every remembered node's tried
	// neighbours (see walkFrame).
	history []walkFrame
	tried   []metric.Point

	// one is where the canonical target set lives when it has a single
	// member (every plain search): the caller's slice is copied, never
	// kept, so it can sit on the caller's stack. A larger set outgrows it
	// into one allocation the walker owns.
	one [1]metric.Point

	// spill is bestNeighbor's scratch once a node's degree has
	// outgrown its stack buffer; nil (no allocation) until then. A
	// pointer rather than a slice header: it is set on a handful of
	// walkers, and the Walker is paid for once per message.
	spill *[]metric.Point
}

// walkFrame is one remembered node of the backtracking policy. Its
// tried set — the neighbours already taken from it, scanned linearly:
// at most the node's degree, membership the only operation — is a
// region of the walker's one tried stack: frame i owns
// tried[history[i].start:history[i+1].start] and the top frame owns
// the tail. That works because the three things that happen to frames
// keep the top's region at the end of the stack: a forward step appends
// to the top's region and pushes a frame with an empty one; a backward
// step pops the top frame and truncates its region away; eviction takes
// the oldest frame, whose region is at the bottom, below
// history[0].start, where it sits until the stack next fills and
// reclaim slides the live regions down over it. bestNeighbor therefore
// sees each node's tried neighbours in insertion order, exactly as when
// every frame carried its own slice — with no allocation per step, and
// a stack bounded by the remembered nodes' degrees rather than by the
// length of the walk.
type walkFrame struct {
	at    metric.Point
	start int
}

// Per-walker buffer shares, in entries. ftrmark's live workloads
// average 5.4 hops per lookup (mean_hops) and the paper's searches are
// O(lg² n / ℓ), so 16 path points hold nearly every walk without
// growing (a longer one grows its own path by append, like any slice),
// and 16 tried entries hold the BacktrackMemory remembered nodes' tried
// sets — one entry each on a walk that never retries — with room for
// retries before that buffer, too, grows.
const (
	pathShare  = 16
	triedShare = 16
)

// arenaChunk is how many walkers an Arena allocates at a time: large
// enough that a chunk's three slabs amortize to ~0.01 allocations per
// walker, small enough (≈ 130 KB under the engine's options) that the
// unissued tail of a run's last chunk wastes little.
const arenaChunk = 256

// Arena allocates walkers for one Router a chunk at a time: the Walker
// structs, their traced paths and tried stacks, and their history
// frames come from three slabs per chunk instead of three or more heap
// objects per walker. It exists for callers that start many searches
// and keep them all — the engine holds every lookup of a run in flight
// at once and reports every traced path, so a free-list would have
// nothing to recycle.
//
// The aliasing rule: each walker's buffers are carved with three-index
// slices, so their capacity ends where the next walker's begin. A walk
// that outgrows its share reallocates that one buffer privately and can
// never write into a neighbour's; walkers of one chunk may therefore
// Step concurrently on different goroutines, and a Result's Path stays
// valid and unshared for as long as the caller keeps it (it pins the
// chunk's point slab, not just its own 16 entries). Walker itself — the
// method that carves — is not safe for concurrent use.
type Arena struct {
	r *Router
	// The unissued remainder of the current chunk.
	walkers []Walker
	points  []metric.Point
	frames  []walkFrame
}

// NewArena returns an empty arena for r's searches.
func (r *Router) NewArena() *Arena { return &Arena{r: r} }

// shares returns the arena's per-walker slab shares under its router's
// options: path and tried entries (zero when the options never touch
// them) and history frames.
func (a *Arena) shares() (path, tried, frames int) {
	if a.r.opt.TracePath {
		path = pathShare
	}
	if a.r.opt.DeadEnd == Backtrack {
		tried, frames = triedShare, a.r.opt.BacktrackMemory
	}
	return path, tried, frames
}

// grow replaces the (exhausted) chunk with a fresh one of n walkers.
func (a *Arena) grow(n int) {
	path, tried, frames := a.shares()
	a.walkers = make([]Walker, n)
	if path+tried > 0 {
		a.points = make([]metric.Point, n*(path+tried))
	}
	if frames > 0 {
		a.frames = make([]walkFrame, n*frames)
	}
}

// Walker is Router.Walker drawing on the arena's slabs.
func (a *Arena) Walker(source *rng.Source, from metric.Point, targets []metric.Point) (*Walker, error) {
	if len(a.walkers) == 0 {
		a.grow(arenaChunk)
	}
	path, tried, frames := a.shares()
	w := &a.walkers[0]
	if path > 0 {
		w.res.Path = a.points[0:0:path] // an untraced Result's Path stays nil
	}
	w.tried = a.points[path : path : path+tried]
	w.history = a.frames[0:0:frames]
	if err := w.start(a.r, source, from, targets); err != nil {
		*w = Walker{} // the slot and its shares go to the next search
		return nil, err
	}
	a.walkers = a.walkers[1:]
	a.points = a.points[path+tried:]
	a.frames = a.frames[frames:]
	return w, nil
}

// Walker starts a resumable search from `from` toward the nearest live
// member of `targets` (a single-element set is the plain
// single-destination search; Options.Targets precedence is Route's
// affair — the set passed here is the set walked). The returned Walker
// has already visited `from` (it appears in the traced path); if
// `from` is itself a target the search is born delivered and Step
// returns false immediately. The targets slice is copied, not kept.
func (r *Router) Walker(source *rng.Source, from metric.Point, targets []metric.Point) (*Walker, error) {
	// A chunk of one: the same carving, so the same walker, for callers
	// with one search to run.
	a := Arena{r: r}
	a.grow(1)
	return a.Walker(source, from, targets)
}

// start validates a search and puts w — zero but for the empty buffers
// its allocator carved — at its origin.
func (w *Walker) start(r *Router, source *rng.Source, from metric.Point, targets []metric.Point) error {
	if !r.g.Alive(from) {
		return fmt.Errorf("route: origin %d is not a live node", from)
	}
	tset, err := r.liveTargets(w.one[:0], targets)
	if err != nil {
		return err
	}
	if r.opt.Sidedness == OneSided {
		if r.oriented == nil {
			return fmt.Errorf("route: one-sided routing needs an oriented (1-D) space, not %s",
				r.g.Space().Name())
		}
		if len(tset) > 1 {
			return fmt.Errorf("route: one-sided routing supports a single target, got %d live replicas",
				len(tset))
		}
	}
	w.r, w.src, w.targets, w.cur = r, source, tset, from
	w.res.Target = -1
	r.trace(&w.res, from)
	if r.opt.DeadEnd == Backtrack {
		w.push(from)
	}
	if isTarget(from, tset) {
		w.res.Delivered = true
		w.res.Target = from
		w.done = true
	}
	return nil
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
	top := w.history[len(w.history)-1]
	if next, ok := w.bestNeighbor(w.tried[top.start:]); ok {
		if len(w.tried) == cap(w.tried) {
			w.reclaim()
		}
		w.tried = append(w.tried, next)
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
	w.tried = w.tried[:top.start]
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

// reclaim slides the live tried regions down over what evicted frames
// left at the bottom of the stack.
func (w *Walker) reclaim() {
	dead := w.history[0].start
	w.tried = w.tried[:copy(w.tried, w.tried[dead:])]
	for i := range w.history {
		w.history[i].start -= dead
	}
}

// push remembers a visited node for the backtracking policy, evicting
// the oldest once the paper's memory bound is reached. The survivors
// are copied down in place — at most BacktrackMemory-1 two-word frames —
// so the frame buffer never slides off its allocation and never grows.
func (w *Walker) push(p metric.Point) {
	if len(w.history) == w.r.opt.BacktrackMemory {
		w.history = w.history[:copy(w.history, w.history[1:])]
	}
	w.history = append(w.history, walkFrame{at: p, start: len(w.tried)})
}
