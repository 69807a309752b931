package route

import (
	"fmt"
	"slices"

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
// A Walker runs one search at a time and is not safe for concurrent
// use; an Arena recycles it for the next search once its caller
// releases it. Its rng source must not be shared with another in-flight
// Walker.
type Walker struct {
	r   *Router
	src *rng.Source
	// set is the live target set, decoded (metric.Kernel) — or, when
	// tabled, the distance table of that set the walker shares with
	// others of its arena (Arena.share).
	set    []int32
	cur    metric.Point
	res    Result
	done   bool
	last   StepKind
	tabled bool // in the padding after last: the Walker does not grow

	// Backtrack state: one stack of every remembered node's region — the
	// node, then the neighbours already tried from it — and the offsets
	// of the last BacktrackMemory visited nodes' regions in it, oldest
	// first (see push). int32s, the type of a neighbour row's entries.
	history []int32
	tried   []int32

	// one is where the decoded target set lives when it fits in two
	// coordinates — one member of a 1-D or 2-D space, as in every plain
	// search there: the caller's slice is read, never kept, so it can
	// sit on the caller's stack. A larger set is carved from its
	// allocator's set slab instead.
	one [2]int32

	// spill is bestNeighbor's scratch once a gathered node's degree
	// has outgrown its stack buffer; nil (no allocation) until then. A
	// pointer rather than a slice header: it is set on a handful of
	// walkers, and the Walker is paid for once per message.
	spill *[]int32
}

// Per-walker buffer shares, in entries. ftrmark's live workloads
// average 5.4 hops per lookup (mean_hops) and the paper's searches are
// O(lg² n / ℓ), so 16 path points hold nearly every walk without
// growing (a longer one grows its own path by append, like any slice),
// and a tried stack of the BacktrackMemory remembered nodes and 16
// tried entries holds their tried sets — one entry each on a walk that
// never retries — with room for retries before that buffer, too, grows.
const (
	pathShare  = 16
	triedShare = 16
)

// arenaChunk is the most walkers an Arena allocates at a time: large
// enough that a chunk's slabs amortize to ~0.01 allocations per walker,
// small enough (≈ 105 KB under the engine's options) that the unissued
// tail of a run's last chunk wastes little.
const arenaChunk = 256

// Arena is where walkers come from: it allocates them for one Router a
// chunk at a time and takes them back when their searches are over. The
// Walker structs, their paths (when the Router traces), and their tried
// stacks and histories (under Backtrack, one int32 slab) come from at
// most three slabs per chunk instead of three or more heap objects per
// walker, and a decoded target set too large for the walker's own array
// (a replica set) from a fourth, grown only when such a set first
// arrives. A run of walkers toward one replica set shares that set's
// distance table instead (Arena.share).
// Chunks double the walkers carved so far, up to arenaChunk, and the
// first walker and the first slot of the free stack live in the Arena
// itself, so a caller that runs one search at a time (RouteAny, as
// sim.MeasureSearches does for every §6 table) allocates per arena, not
// per search, and one that keeps many in flight — the engine's lookups,
// which wait in queues between hops — carves about its peak. How many
// are in flight is the traffic's business: ftrmark's live_seq holds 75 %
// of its lookups in flight at its peak, churn_pit 6.8 % and a knee_sweep
// run a batch of 32. A finished walker goes back (Release): its traced
// path is copied, at exact length, into a fifth, append-only slab of
// kept paths, and the walker onto a free stack that Walker pops before
// it carves, keeping the buffers the last search grew. The kept paths
// cost a lookup its hop count in points rather than a whole walker. An
// untracing Router's walkers have no path share and keep no path, which
// is what the engine's live runs ask for unless something reads the
// path: 128 of a backtracking walker's 416 bytes (five remembered
// nodes), and the kept copy, are gone.
//
// The aliasing rule: each walker's buffers are carved with three-index
// slices, so their capacity ends where the next walker's begin. A walk
// that outgrows its share reallocates that one buffer privately and can
// never write into a neighbour's; walkers of one arena may therefore
// Step concurrently on different goroutines. Kept paths are carved the
// same way, so a released Result's Path stays valid and unshared for as
// long as the caller keeps it, whatever the walker searches next. The
// one thing walkers of an arena do share is a distance table, written in
// full before the first walker that takes it is returned and only read
// after; a released walker hands its reference back and never decodes
// into it. Walker and Release are not safe for concurrent use, with each
// other or with themselves.
type Arena struct {
	r *Router
	// The unissued remainder of the current chunk, of the target-set
	// slab, and of the kept-path slab; and the released walkers, the
	// last released on top.
	walkers []Walker
	points  []metric.Point
	stacks  []int32
	sets    []int32
	kept    []metric.Point
	free    []*Walker
	// prev is the multi-member live set the arena's last walker toward
	// one decoded — that walker's own decoded set while it is in flight,
	// own's copy of it once the walker is released — run how many walkers
	// in a row have decoded it, and table its distance table once that
	// run is long enough (nil until then).
	prev, own, table []int32
	run              int
	carved           int // walkers carved so far, issued or not
	// first is the first chunk's one walker and slot the free stack's
	// first entry.
	first [1]Walker
	slot  [1]*Walker
	// keptSlab is the kept-path slab a Reuse rewinds kept to, and
	// keptCap the points of every kept-path slab since then, that one
	// included: more than it holds when the searches outgrew it.
	keptSlab []metric.Point
	keptCap  int
}

// NewArena returns an empty arena for r's searches.
func (r *Router) NewArena() *Arena {
	a := &Arena{r: r}
	a.free = a.slot[:0]
	return a
}

// shares returns a walker's buffer shares under the router's options,
// in entries, zero when the options never touch them: its path, its
// tried stack, which holds every remembered node besides triedShare
// tried neighbours, and its history.
func (r *Router) shares() (path, tried, history int) {
	if r.opt.TracePath {
		path = pathShare
	}
	if r.opt.DeadEnd == Backtrack {
		history = r.opt.BacktrackMemory
		tried = triedShare + history
	}
	return path, tried, history
}

// grow replaces the (exhausted) chunk with a fresh one, as many walkers
// as the arena has carved (one to start with, at most arenaChunk), and
// returns its size.
func (a *Arena) grow() int {
	n := min(max(a.carved, 1), arenaChunk)
	path, tried, history := a.r.shares()
	if a.carved == 0 {
		a.walkers = a.first[:]
	} else {
		a.walkers = make([]Walker, n)
	}
	a.carved += n
	if path > 0 {
		a.points = make([]metric.Point, n*path)
	}
	if tried > 0 {
		a.stacks = make([]int32, n*(tried+history))
	}
	return n
}

// Walker is Router.Walker drawing on the arena: the last released
// walker, reset, or else a fresh one carved from the slabs.
func (a *Arena) Walker(source *rng.Source, from metric.Point, targets []metric.Point) (*Walker, error) {
	// Every walker the arena can issue before its next grow or release.
	slots := len(a.walkers) + len(a.free)
	path, tried, history := a.r.shares()
	var w *Walker
	recycled := len(a.free) > 0
	if recycled {
		w = a.free[len(a.free)-1]
		w.reset()
	} else {
		if len(a.walkers) == 0 {
			slots = a.grow()
		}
		w = &a.walkers[0]
		if path > 0 {
			w.res.Path = a.points[0:0:path] // an untraced Result's Path stays nil
		}
		w.tried = a.stacks[0:0:tried]
		w.history = a.stacks[tried : tried : tried+history]
		w.set = w.one[:0]
	}
	// The set decodes into the walker's own array or the share a
	// recycled walker kept, when it fits.
	set := len(targets) * a.r.kern.Dim()
	if cap(w.set) >= set {
		w.set, set = w.set[:0], 0
	} else {
		// A share of the set slab holds every member of the caller's set
		// decoded; the slab is sized for every walker still to issue.
		if len(a.sets) < set {
			a.sets = make([]int32, set*slots)
		}
		w.set = a.sets[0:0:set]
	}
	w.r = a.r
	if err := w.start(source, from, targets); err != nil {
		// The walker and its shares go to the next search: a fresh slot
		// zeroed, a recycled one still on the free stack, without a set
		// share it was lent.
		if !recycled {
			*w = Walker{}
		} else if set > 0 {
			w.set = w.one[:0]
		}
		return nil, err
	}
	if len(w.set) > a.r.kern.Dim() { // a multi-member set, so two-sided
		w.set, w.tabled = a.share(w.set)
	}
	if recycled {
		a.free = a.free[:len(a.free)-1]
	} else {
		a.walkers = a.walkers[1:]
		a.points = a.points[path:]
		a.stacks = a.stacks[tried+history:]
	}
	if !w.tabled { // a tabled walker keeps no decoded set of its own
		a.sets = a.sets[set:]
	}
	return w, nil
}

// Carved reports how many walkers the arena has carved: a whole number
// of chunks, enough for the most walkers it ever had issued at once:
// the first of the totals 1, 2, 4, …, 256, 512, 768, … that covers them.
func (a *Arena) Carved() int { return a.carved }

// keptChunk is how many points the kept-path slab allocates at a time:
// a full chunk's worth of walkers' path shares.
const keptChunk = arenaChunk * pathShare

// Release takes back a walker the arena issued, once its caller has
// read everything it needs of it, and returns its Result: the same
// outcome, with a traced Path copied into the arena's kept-path slab at
// exact length, so it stays valid and unshared — appending to it
// reallocates — while the walker searches again. The caller must not use
// w afterwards.
func (a *Arena) Release(w *Walker) Result {
	res := w.res
	if n := len(res.Path); n > 0 {
		if len(a.kept) < n {
			a.kept = make([]metric.Point, max(keptChunk, n))
			a.keptCap += len(a.kept)
		}
		res.Path = a.kept[:n:n]
		copy(res.Path, w.res.Path)
		a.kept = a.kept[n:]
	}
	switch {
	case w.tabled:
		w.set = w.one[:0] // the arena's table, never a buffer to decode into
	case len(a.prev) > 0 && cap(w.set) > 0 && &w.set[:1][0] == &a.prev[0]:
		// share compares later sets with this walker's: keep its bytes,
		// which the walker's next search overwrites.
		a.own = append(a.own[:0], a.prev...)
		a.prev = a.own
	}
	a.free = append(a.free, w)
	return res
}

// Reuse returns an arena for r's searches: a itself, keeping every
// walker and slab it has carved, when every walker it issued has been
// released and r is a router over a's graph that carves walkers alike
// (the same TracePath, DeadEnd and BacktrackMemory); otherwise, and for
// a nil a, r.NewArena(). A reused arena keeps its next paths in one
// slab, as large as all its kept-path slabs so far, so the next searches
// overwrite the Paths of every Result it released before; and it forgets
// its distance table, so it scores exactly as a fresh arena would.
func (a *Arena) Reuse(r *Router) *Arena {
	if a == nil || a.r.g != r.g || a.carved != len(a.free)+len(a.walkers) ||
		a.r.opt.TracePath != r.opt.TracePath || a.r.opt.DeadEnd != r.opt.DeadEnd ||
		a.r.opt.BacktrackMemory != r.opt.BacktrackMemory {
		return r.NewArena()
	}
	if a.keptCap > len(a.keptSlab) {
		a.keptSlab = make([]metric.Point, a.keptCap)
	}
	a.r, a.kept, a.keptCap = r, a.keptSlab, len(a.keptSlab)
	a.prev, a.table, a.run = nil, nil, 0
	return a
}

// tablePoints is how many points of a distance table one walker's
// scans pay for. A table costs Kernel.Nearest at every point; a walker
// scanning the set calls it once per live candidate of every step, 130
// times on knee_sweep (6.3 hops, ~20 live candidates each). So a run of
// Size/tablePoints walkers toward one set has spent about what its
// table costs, and a shorter run that ends is one whose table would not
// have paid for itself.
const tablePoints = 256

// share returns what a walker toward a multi-member live set scores
// against. A set other than prev becomes prev and is scanned member by
// member. The walker that makes a run toward one set
// max(2, Size/tablePoints) long builds its distance table — Kernel.Nearest
// at every point — and it and every later walker in that run score with
// one load (tabled). Only consecutive repeats count, and only long runs
// earn a table: hash-placed replicas under Zipf keys change the set at
// nearly every lookup, and a hot key's short runs there would each pay
// for a table that serves a walker or two. A changed set starts a new
// table rather than rebuilding the old one, which walkers still in
// flight read.
func (a *Arena) share(set []int32) (scored []int32, tabled bool) {
	if !slices.Equal(set, a.prev) {
		a.prev, a.table, a.run = set, nil, 1
		return set, false
	}
	a.run++
	if a.table == nil {
		if a.run < max(2, a.r.g.Size()/tablePoints) {
			return set, false
		}
		a.table = make([]int32, a.r.g.Size())
		for p := range a.table {
			a.table[p] = int32(a.r.kern.Nearest(metric.Point(p), set))
		}
	}
	return a.table, true
}

// RouteAny is Router.RouteAny on a walker of the arena, which it takes
// back (Release) once the search is over.
func (a *Arena) RouteAny(source *rng.Source, from metric.Point, targets []metric.Point) (Result, error) {
	w, err := a.Walker(source, from, targets)
	if err != nil {
		return Result{}, err
	}
	for w.Step() {
	}
	return a.Release(w), nil
}

// Walker starts a resumable search from `from` toward the nearest live
// member of `targets` (a single-element set is the plain
// single-destination search) on a fresh arena's walker, so it never
// shares a distance table. The returned Walker has already visited
// `from` (it appears in the traced path); if `from` is itself a target
// the search is born delivered and Step returns false immediately. The
// targets slice is read, not kept.
func (r *Router) Walker(source *rng.Source, from metric.Point, targets []metric.Point) (*Walker, error) {
	return r.NewArena().Walker(source, from, targets)
}

// reset zeroes w for its next search but for its router and the
// buffers the searches before it grew, emptied: its traced path, tried
// stack, history, decoded target set and spill.
func (w *Walker) reset() {
	*w = Walker{
		r:       w.r,
		set:     w.set[:0],
		res:     Result{Path: w.res.Path[:0]},
		history: w.history[:0],
		tried:   w.tried[:0],
		spill:   w.spill,
	}
}

// start validates a search and puts w — zero but for the empty buffers
// its allocator carved, the target set's included — at its origin.
func (w *Walker) start(source *rng.Source, from metric.Point, targets []metric.Point) error {
	r := w.r
	if !r.g.Alive(from) {
		return fmt.Errorf("route: origin %d is not a live node", from)
	}
	set, err := r.liveTargets(w.set, targets)
	if err != nil {
		return err
	}
	if r.opt.Sidedness == OneSided {
		if r.oriented == nil {
			return fmt.Errorf("route: one-sided routing needs an oriented (1-D) space, not %s",
				r.g.Space().Name())
		}
		if len(set) > 1 {
			return fmt.Errorf("route: one-sided routing supports a single target, got %d live replicas",
				len(set))
		}
	}
	w.src, w.set, w.cur = source, set, from
	w.res.Target = -1
	r.trace(&w.res, from)
	if r.opt.DeadEnd == Backtrack {
		w.push(from)
	}
	w.arrive(w.distance(from))
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

// Step advances the search by at most one hop: a greedy forward move,
// a random re-route jump, or a backward backtracking move, whichever
// the configured dead-end policy prescribes at the current node. It
// returns true while the search is still in flight; false once the
// outcome is final (delivered on the hop just taken, or failed with no
// move). Every non-terminal Step moves to exactly one new node —
// Result.Path grows by one entry per Step when tracing — which is the
// contract the discrete-event engine charges queue services against.
func (w *Walker) Step() bool {
	switch {
	case w.done:
		return false
	case w.res.Hops >= w.r.opt.MaxHops:
		return w.stop()
	case w.r.opt.DeadEnd == Backtrack:
		return w.stepBacktrack()
	}
	return w.stepGreedy()
}

// stop ends the search where it stands, without a move.
func (w *Walker) stop() bool {
	w.done, w.last = true, StepNone
	return false
}

// stepGreedy is one iteration of the greedy loop with the Terminate or
// RandomReroute recovery policy.
func (w *Walker) stepGreedy() bool {
	r := w.r
	if next, d, ok := w.bestNeighbor(nil); ok {
		w.last = StepGreedy
		w.move(next, d)
		return !w.done
	}
	// Dead end. Hand the message to a random live node, if the policy
	// and budget allow; the hand-off itself costs a hop.
	if r.opt.DeadEnd != RandomReroute || w.res.Reroutes >= r.opt.MaxReroutes || w.res.Hops >= r.opt.MaxHops {
		return w.stop()
	}
	next, ok := r.g.RandomAlive(w.src)
	if !ok {
		return w.stop()
	}
	w.res.Reroutes++
	w.last = StepReroute
	w.move(next, w.distance(next))
	return !w.done
}

// stepBacktrack is one iteration of the §6 backtracking loop: a
// forward move to the best untried neighbour, or a backward move to
// the most recently remembered node.
func (w *Walker) stepBacktrack() bool {
	top := w.history[len(w.history)-1]
	if next, d, ok := w.bestNeighbor(w.tried[top+1:]); ok {
		w.stack(int32(next))
		w.last = StepGreedy
		w.move(next, d)
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
		return w.stop()
	}
	w.tried = w.tried[:top]
	w.history = w.history[:len(w.history)-1]
	w.cur = metric.Point(w.tried[w.history[len(w.history)-1]])
	w.res.Hops++
	w.res.Backtracks++
	w.last = StepBacktrack
	w.r.trace(&w.res, w.cur)
	return true
}

// move advances to next, at distance d from the target set, charging
// one hop.
func (w *Walker) move(next metric.Point, d int) {
	w.cur = next
	w.res.Hops++
	w.r.trace(&w.res, next)
	w.arrive(d)
}

// arrive delivers the search at the current node when its distance d
// to the target set is 0: the node is a live member.
func (w *Walker) arrive(d int) {
	if d == 0 {
		w.res.Delivered = true
		w.res.Target = w.cur
		w.done = true
	}
}

// push remembers a visited node for the backtracking policy, evicting
// the oldest once the paper's memory bound is reached, and opens the
// node's region of the tried stack, headed by the node itself. Region i
// is tried[history[i]:history[i+1]], the top's runs to the end, and a
// node's tried set — the neighbours already taken from it, scanned
// linearly: at most its degree, membership the only operation — is its
// region past the head. The three things that happen to regions keep
// the top's at the end of the stack: a forward step appends to the top's
// region and opens a new one; a backward step truncates the top's away;
// eviction forgets the oldest, at the bottom, below history[0], where it
// sits until the stack next fills and stack slides the live regions
// down over it. bestNeighbor therefore sees each node's tried neighbours
// in insertion order, with no allocation per step, and the stack is
// bounded by the remembered nodes' degrees, not by the walk's length.
// The surviving offsets are copied down in place, so the history never
// slides off its allocation and never grows.
func (w *Walker) push(p metric.Point) {
	if len(w.history) == w.r.opt.BacktrackMemory {
		w.history = w.history[:copy(w.history, w.history[1:])]
	}
	w.history = append(w.history, int32(len(w.tried)))
	w.stack(int32(p))
}

// stack appends v to the tried stack, first reclaiming what evicted
// regions left at its bottom when it is full.
func (w *Walker) stack(v int32) {
	if dead := w.history[0]; len(w.tried) == cap(w.tried) && dead > 0 {
		w.tried = w.tried[:copy(w.tried, w.tried[dead:])]
		for i := range w.history {
			w.history[i] -= dead
		}
	}
	w.tried = append(w.tried, v)
}
