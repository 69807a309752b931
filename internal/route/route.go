// Package route implements the paper's greedy routing algorithms over an
// overlay graph (package graph), together with the three dead-end
// recovery strategies evaluated in §6:
//
//  1. Terminate — give up as soon as no live neighbour makes progress.
//  2. RandomReroute — hand the message to a uniformly random live node
//     and continue greedily from there (the Valiant-style re-route of
//     §6, strategy 2).
//  3. Backtrack — remember the last few visited nodes; when stuck, step
//     back and take the next-best unexplored neighbour (§6, strategy 3;
//     the paper fixes the memory at 5 nodes).
//
// Both sidedness variants from the lower-bound section (§4.2.1) are
// supported: two-sided greedy (minimize distance, either direction) and
// one-sided greedy (never pass the target; on a ring this is Chord-style
// clockwise-only routing).
//
// Beyond the paper's single-destination searches, the router also
// routes to the nearest of several targets (RouteAny):
// greedy selection minimizes the distance to the closest live member of
// a replica set, the forwarding-to-any-of-k-copies rule hot-key
// replication (package replica) needs. A single destination is the
// one-member set. A walker decodes its live set once, at its start,
// into per-axis coordinates (metric.Kernel), so scoring a candidate
// decodes the candidate alone; a search is delivered where that set
// distance is 0. One-sided routing instead minimizes the orientation's
// forward distance to its one target. Every dead-end policy, the
// strict-progress guarantee, and the congestion penalties compose with
// multi-target routing unchanged.
//
// Walkers carved from one Arena toward one multi-member set in a row —
// every lookup of a flood — share that set's distance table instead:
// Kernel.Nearest at every point, built once the run is long enough to
// have paid for it (Arena.share), so scoring a candidate is one load.
// A set that differs from the previous one is scanned member by member,
// so traffic whose set changes at every lookup never builds a table;
// single targets, a fresh arena's first walker (Router.Walker, Route and
// RouteAny run on one) and one-sided routing never take one.
//
// A step scores the current node's neighbour row (graph.Row): the
// graph's cached int32 row when the engine has built the rows and the
// node's is fresh, else the gather of the same sequence — one loop over
// one order either way, so a walk is the same walk with or without the
// rows.
//
// Every search is built on a resumable core: Router.Walker exposes the
// walk one hop at a time (Walker.Step), which is how the discrete-event
// engine (internal/engine) interleaves forwarding decisions with
// queueing so each hop can read live congestion state. Route and
// RouteAny are thin loops over Step and byte-identical to it. Every
// walker comes from an Arena, which recycles it once its search is
// over: Arena.RouteAny runs searches one after another on one walker,
// and RouteHonest and RouteRedundant run the Byzantine searches there.
package route

import (
	"fmt"
	"slices"

	"repro/internal/graph"
	"repro/internal/mathx"
	"repro/internal/metric"
	"repro/internal/rng"
)

// Sidedness selects the greedy variant of §4.2.1.
type Sidedness int

const (
	// TwoSided greedy minimizes metric distance, allowed to overshoot
	// the target.
	TwoSided Sidedness = iota + 1
	// OneSided greedy never traverses a link that would take it past
	// its target.
	OneSided
)

// String returns the variant name.
func (s Sidedness) String() string {
	switch s {
	case TwoSided:
		return "two-sided"
	case OneSided:
		return "one-sided"
	default:
		return fmt.Sprintf("sidedness(%d)", int(s))
	}
}

// DeadEndPolicy selects what a search does when the current node has no
// live neighbour closer to the target than itself.
type DeadEndPolicy int

const (
	// Terminate fails the search at the first dead end.
	Terminate DeadEndPolicy = iota + 1
	// RandomReroute restarts the search from a uniformly random live
	// node, up to Options.MaxReroutes times.
	RandomReroute
	// Backtrack keeps a short history of visited nodes and retries
	// from the most recent one with an untried neighbour.
	Backtrack
)

// String returns the policy name used in experiment output.
func (p DeadEndPolicy) String() string {
	switch p {
	case Terminate:
		return "terminate"
	case RandomReroute:
		return "random-reroute"
	case Backtrack:
		return "backtracking"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// Options configures a Router.
type Options struct {
	// Sidedness defaults to TwoSided when zero.
	Sidedness Sidedness
	// DeadEnd defaults to Terminate when zero.
	DeadEnd DeadEndPolicy
	// BacktrackMemory is the number of recently visited nodes kept for
	// the Backtrack policy. Zero defaults to 5, the paper's value.
	BacktrackMemory int
	// MaxReroutes bounds RandomReroute restarts. Zero defaults to 1.
	MaxReroutes int
	// MaxHops bounds the total hop count of one search; exceeding it
	// fails the search. Zero defaults to 4·⌈lg n⌉² + 64, comfortably
	// above the O(log²n) expectation so the cap fires only on
	// genuinely stuck searches.
	MaxHops int
	// DirectedOnly restricts greedy candidates to outgoing links —
	// the directed model analyzed in §4's bounds. The default
	// (false) routes over the symmetric physical neighbour set (out-
	// plus in-links), which is what the §6 simulations measure: a
	// long link is a network connection both endpoints can use.
	DirectedOnly bool
	// Congestion, when non-nil, reports a congestion penalty for
	// forwarding through a node. Package load feeds it the hops it has
	// already charged (Config.Penalty) and/or the node's instantaneous
	// queue depth from a replay of the traffic routed so far
	// (Config.DepthPenalty). Greedy selection then minimizes
	// distance + Congestion(q), in distance units, over the neighbours
	// that still make strict metric progress, instead of distance
	// alone — a congestion-penalized detour that spreads traffic off
	// hot nodes while preserving the strict-progress guarantee (and
	// hence termination) of plain greedy. Nil keeps the paper's
	// hop-optimal rule exactly.
	Congestion func(q metric.Point) float64
	// TracePath records the visited sequence in Result.Path.
	TracePath bool
}

// withDefaults resolves the zero values.
func (o Options) withDefaults(n int) Options {
	if o.Sidedness == 0 {
		o.Sidedness = TwoSided
	}
	if o.DeadEnd == 0 {
		o.DeadEnd = Terminate
	}
	if o.BacktrackMemory == 0 {
		o.BacktrackMemory = 5
	}
	if o.MaxReroutes == 0 {
		o.MaxReroutes = 1
	}
	if o.MaxHops == 0 {
		lg := mathx.ILog2(n) + 1
		o.MaxHops = 4*lg*lg + 64
	}
	return o
}

// ResolvedMaxHops returns the hop bound a router over n nodes enforces:
// MaxHops, or its default when zero.
func (o Options) ResolvedMaxHops(n int) int { return o.withDefaults(n).MaxHops }

// Result reports the outcome of a single search.
type Result struct {
	// Delivered is true when the message reached the target.
	Delivered bool
	// Hops is the number of overlay edges traversed, counting forward
	// moves, backtracking moves and re-route jumps alike.
	Hops int
	// Reroutes counts RandomReroute restarts actually taken.
	Reroutes int
	// Backtracks counts backward moves taken by the Backtrack policy.
	Backtracks int
	// Target is the point that consumed the message — for multi-target
	// searches, the replica actually reached. It is −1 when the search
	// failed.
	Target metric.Point
	// Path is the visited sequence, only when Options.TracePath.
	Path []metric.Point
}

// Router executes greedy searches over a fixed graph. A Router is
// immutable after creation and safe for concurrent use as long as the
// underlying graph is not mutated, each goroutine uses its own
// rng.Source, and Options.Congestion (when set) tolerates concurrent
// calls.
type Router struct {
	g   *graph.Graph
	opt Options
	// oriented is the graph's space when it carries a linear
	// orientation (1-D line and ring); nil on d-dimensional tori,
	// where one-sided routing is undefined.
	oriented metric.Oriented
	// kern measures distances to a walker's decoded target set.
	kern metric.Kernel
}

// New returns a Router over g with the given options (zero values take
// the paper's defaults).
func New(g *graph.Graph, opt Options) *Router {
	r := &Router{g: g, opt: opt.withDefaults(g.Size()), kern: metric.KernelOf(g.Space())}
	if o, ok := g.Space().(metric.Oriented); ok {
		r.oriented = o
	}
	return r
}

// Route performs one greedy search from src node `from` to target point
// `to`. The rng source drives re-route restarts only; plain greedy
// searches are deterministic given the graph.
func (r *Router) Route(source *rng.Source, from, to metric.Point) (Result, error) {
	return r.RouteAny(source, from, []metric.Point{to})
}

// RouteAny performs one greedy search from `from` to the nearest live
// member of `targets` — the replica-set form of Route. The result is
// independent of the set's order and duplicates; dead replicas are
// dropped, and when only one member is left the search degrades to
// plain single-target greedy exactly. An entirely dead set is an error.
// It is a thin loop over the resumable Walker, so the whole-path searches
// and the engine's single-step form are the same walk by construction,
// for every target-set size. Each call runs on a fresh arena's walker
// and keeps the walker's traced path; a caller with many searches to run
// holds an Arena and calls its RouteAny instead.
func (r *Router) RouteAny(source *rng.Source, from metric.Point, targets []metric.Point) (Result, error) {
	w, err := r.Walker(source, from, targets)
	if err != nil {
		return Result{}, err
	}
	for w.Step() {
	}
	return w.Result(), nil
}

// liveTargets decodes a target set's live members, each once, into
// dst's storage (appending past its capacity when the set is larger).
// Their order is the caller's, which nothing depends on: greedy
// minimizes the distance to the nearest member. The caller's slice is
// read, never kept.
func (r *Router) liveTargets(dst []int32, targets []metric.Point) ([]int32, error) {
	if len(targets) == 0 {
		return nil, fmt.Errorf("route: empty target set")
	}
	live := dst
	for i, t := range targets {
		// A member already decoded is an earlier occurrence of the
		// same point: packed points compare equal exactly when their
		// distance is 0.
		if r.g.Alive(t) && !slices.Contains(targets[:i], t) {
			live = r.kern.Append(live, t)
		}
	}
	if len(live) > 0 {
		return live, nil
	}
	if len(targets) == 1 {
		// The common single-destination search keeps its historical
		// liveness error.
		return nil, fmt.Errorf("route: target %d is not a live node", targets[0])
	}
	return nil, fmt.Errorf("route: no live target among %d replicas", len(targets))
}

// scratchNeighbors is the capacity of the stack buffer one greedy step
// gathers neighbours into when the graph holds no fresh row for the
// node. It covers 2·dim short links plus the out- and in-links of every
// node of the paper's constructions at the sizes simulated; a node of
// higher degree spills to its walker's heap slice.
const scratchNeighbors = 64

// bestNeighbor returns the live neighbour of the walker's current node
// that is closest to the target set under the configured sidedness and
// strictly closer than the node itself, skipping any points in `tried`,
// and that neighbour's distance (0: it delivers). The third return is
// false at a dead end.
//
// The paper's rule (§6): a node picks its best *live* neighbour; it
// never forwards to a second choice at the same visit — recovery is the
// dead-end policy's job. bestNeighbor therefore filters dead nodes
// (liveness of a neighbour is local knowledge) but returns only the
// single best candidate.
//
// With Options.Congestion set, "best" means the lowest
// distance + congestion score among the neighbours strictly
// closer than cur. The candidate set is unchanged, so termination and
// the per-node dead-end condition match plain greedy, and on a
// failure-free network delivery is still guaranteed; on a damaged
// network the penalized walk takes different paths and can hit (or
// avoid) dead ends plain greedy would not — delivery rates are an
// empirical matter there, which the experiments measure.
func (w *Walker) bestNeighbor(tried []int32) (metric.Point, int, bool) {
	r, cur := w.r, w.cur
	// The candidates are the node's cached neighbour row (graph.Row)
	// when the graph holds a fresh one. Otherwise they are gathered into
	// a stack array, or into the walker's own spill slice once it has
	// met a node too large for the array. The scratch is never the
	// router's: one router serves every shard. The spill is sized from
	// the overflow rather than taken from the returned slice, which may
	// alias the stack array.
	var stack [scratchNeighbors]int32
	buf := stack[:0]
	if w.spill != nil {
		buf = *w.spill
	}
	nbrs, cached := r.g.Row(buf, cur, !r.opt.DirectedOnly)
	if !cached && len(nbrs) > cap(buf) {
		spill := make([]int32, 0, 2*len(nbrs))
		w.spill = &spill
	}

	curDist := w.distance(cur)
	best := cur
	bestDist := curDist
	bestScore := 0.0
	found := false
	for _, n := range nbrs {
		q := metric.Point(n)
		if !r.g.Alive(q) || slices.Contains(tried, n) {
			continue
		}
		if r.opt.Sidedness == OneSided && !r.oriented.Between(cur, q, metric.Point(w.set[0])) {
			continue
		}
		d := w.distance(q)
		if r.opt.Congestion == nil {
			if d < bestDist {
				best, bestDist, found = q, d, true
			}
			continue
		}
		if d >= curDist {
			continue // only strict metric progress keeps greedy loop-free
		}
		score := float64(d) + r.opt.Congestion(q)
		if !found || score < bestScore {
			best, bestDist, bestScore, found = q, d, score, true
		}
	}
	return best, bestDist, found
}

// distance is the objective greedy minimizes: the distance to the
// nearest member of the walker's live target set, or for one-sided
// routing the orientation's forward distance to its one target
// (clockwise on a ring; on a line both coincide because Between already
// constrains the direction). It is zero exactly on the set, and every
// unit of progress toward it is a unit of metric progress toward some
// replica, so the strict-progress termination argument of single-target
// greedy carries over verbatim. A tabled walker reads it from its
// shared table, inline; any other computes it.
func (w *Walker) distance(p metric.Point) int {
	if w.tabled {
		return int(w.set[p])
	}
	return w.measure(p)
}

// measure computes distance for a walker without a table.
func (w *Walker) measure(p metric.Point) int {
	if w.r.opt.Sidedness == OneSided {
		return w.r.oriented.ForwardDistance(p, metric.Point(w.set[0]))
	}
	return w.r.kern.Nearest(p, w.set)
}

func (r *Router) trace(res *Result, p metric.Point) {
	if r.opt.TracePath {
		res.Path = append(res.Path, p)
	}
}
