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
// routes to the nearest of several targets (RouteAny, Options.Targets):
// greedy selection minimizes the distance to the closest live member of
// a replica set, the forwarding-to-any-of-k-copies rule hot-key
// replication (package replica) needs. Every dead-end policy, the
// strict-progress guarantee, and the congestion penalties compose with
// multi-target routing unchanged.
//
// Every search is built on a resumable core: Router.Walker exposes the
// walk one hop at a time (Walker.Step), which is how the discrete-event
// engine (internal/engine) interleaves forwarding decisions with
// queueing so each hop can read live congestion state. Route and
// RouteAny are thin loops over Step and byte-identical to it.
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
	// distance + CongestionWeight·Congestion(q) over the neighbours
	// that still make strict metric progress, instead of distance
	// alone — a congestion-penalized detour that spreads traffic off
	// hot nodes while preserving the strict-progress guarantee (and
	// hence termination) of plain greedy. Nil keeps the paper's
	// hop-optimal rule exactly.
	Congestion func(q metric.Point) float64
	// CongestionWeight scales Congestion into distance units; zero
	// defaults to 1 when Congestion is set.
	CongestionWeight float64
	// Targets, when non-empty, fixes the target set of every search:
	// Route ignores its per-call destination and routes to the nearest
	// live member of the set instead (exactly RouteAny). The fixed-set
	// form suits single-hot-key scenarios — a flooded key replicated k
	// ways — where one Router serves every message; workloads with
	// per-key replica sets call RouteAny directly.
	Targets []metric.Point
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
	if o.Congestion != nil && o.CongestionWeight == 0 {
		o.CongestionWeight = 1
	}
	return o
}

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
}

// New returns a Router over g with the given options (zero values take
// the paper's defaults).
func New(g *graph.Graph, opt Options) *Router {
	r := &Router{g: g, opt: opt.withDefaults(g.Size())}
	if o, ok := g.Space().(metric.Oriented); ok {
		r.oriented = o
	}
	return r
}

// Route performs one greedy search from src node `from` to target point
// `to`. The rng source drives re-route restarts only; plain greedy
// searches are deterministic given the graph. When Options.Targets is
// non-empty it overrides `to` (see RouteAny).
func (r *Router) Route(source *rng.Source, from, to metric.Point) (Result, error) {
	if len(r.opt.Targets) > 0 {
		return r.RouteAny(source, from, r.opt.Targets)
	}
	return r.routeSet(source, from, []metric.Point{to})
}

// RouteAny performs one greedy search from `from` to the nearest live
// member of `targets` — the replica-set form of Route. The set is
// canonicalized (deduplicated, sorted) before routing, so the result is
// independent of the caller's ordering; dead replicas are dropped, and
// when only one member is left the search degrades to plain
// single-target greedy exactly. An entirely dead set is an error.
func (r *Router) RouteAny(source *rng.Source, from metric.Point, targets []metric.Point) (Result, error) {
	return r.routeSet(source, from, targets)
}

// routeSet is the shared search core: a thin loop over the resumable
// Walker, so the whole-path searches and the engine's single-step form
// are the same walk by construction, for every target-set size.
func (r *Router) routeSet(source *rng.Source, from metric.Point, targets []metric.Point) (Result, error) {
	w, err := r.Walker(source, from, targets)
	if err != nil {
		return Result{}, err
	}
	for w.Step() {
	}
	return w.Result(), nil
}

// liveTargets canonicalizes a target set into dst's storage (appending
// past its capacity when the set is larger): deduplicated, sorted
// ascending (nearest-replica tie-breaks are then independent of the
// caller's ordering), and filtered to live nodes. The caller's slice is
// read, never kept.
func (r *Router) liveTargets(dst, targets []metric.Point) ([]metric.Point, error) {
	if len(targets) == 0 {
		return nil, fmt.Errorf("route: empty target set")
	}
	set := append(dst, targets...)
	slices.Sort(set)
	live := set[:0]
	for i, t := range set {
		if (i == 0 || t != set[i-1]) && r.g.Alive(t) {
			live = append(live, t)
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

// isTarget reports whether p belongs to the (small) target set.
func isTarget(p metric.Point, targets []metric.Point) bool {
	for _, t := range targets {
		if p == t {
			return true
		}
	}
	return false
}

// scratchNeighbors is the capacity of the stack buffer one greedy step
// enumerates neighbours into. It covers 2·dim short links plus the out-
// and in-links of every node of the paper's constructions at the sizes
// simulated; a node of higher degree spills to its walker's heap slice.
const scratchNeighbors = 64

// bestNeighbor returns the live neighbour of the walker's current node
// that is closest to the target set under the configured sidedness and
// strictly closer than the node itself, skipping any points in `tried`.
// The second return is false at a dead end.
//
// The paper's rule (§6): a node picks its best *live* neighbour; it
// never forwards to a second choice at the same visit — recovery is the
// dead-end policy's job. bestNeighbor therefore filters dead nodes
// (liveness of a neighbour is local knowledge) but returns only the
// single best candidate.
//
// With Options.Congestion set, "best" means the lowest
// distance + weight·congestion score among the neighbours strictly
// closer than cur. The candidate set is unchanged, so termination and
// the per-node dead-end condition match plain greedy, and on a
// failure-free network delivery is still guaranteed; on a damaged
// network the penalized walk takes different paths and can hit (or
// avoid) dead ends plain greedy would not — delivery rates are an
// empirical matter there, which the experiments measure.
func (w *Walker) bestNeighbor(tried []metric.Point) (metric.Point, bool) {
	r, cur, targets := w.r, w.cur, w.targets
	// The candidates land in a stack array, or in the walker's own
	// spill slice once it has met a node too large for the array. The
	// scratch is never the router's: one router serves every shard.
	// The spill is sized from the overflow rather than taken from the
	// returned slice, which may alias the stack array.
	var stack [scratchNeighbors]metric.Point
	buf := stack[:0]
	if w.spill != nil {
		buf = *w.spill
	}
	nbrs := r.g.AppendNeighbors(buf, cur, !r.opt.DirectedOnly)
	if len(nbrs) > cap(buf) {
		spill := make([]metric.Point, 0, 2*len(nbrs))
		w.spill = &spill
	}

	curDist := r.setDistance(cur, targets)
	best := cur
	bestDist := curDist
	bestScore := 0.0
	found := false
	for _, q := range nbrs {
		if !r.g.Alive(q) || isTarget(q, tried) {
			continue
		}
		if r.opt.Sidedness == OneSided && !r.oriented.Between(cur, q, targets[0]) {
			continue
		}
		d := r.setDistance(q, targets)
		if r.opt.Congestion == nil {
			if d < bestDist {
				best, bestDist, found = q, d, true
			}
			continue
		}
		if d >= curDist {
			continue // only strict metric progress keeps greedy loop-free
		}
		score := float64(d) + r.opt.CongestionWeight*r.opt.Congestion(q)
		if !found || score < bestScore {
			best, bestScore, found = q, score, true
		}
	}
	return best, found
}

// progressDistance is the distance the greedy rule minimizes: metric
// distance for two-sided routing, the orientation's forward distance
// for one-sided routing (clockwise on a ring; on a line both coincide
// because Between already constrains the direction).
func (r *Router) progressDistance(p, to metric.Point) int {
	if r.opt.Sidedness == OneSided && r.oriented != nil {
		return r.oriented.ForwardDistance(p, to)
	}
	return r.g.Space().Distance(p, to)
}

// setDistance is the multi-target objective: the distance to the
// closest member of the (live, canonicalized) target set. It is zero
// exactly on the set, and every unit of progress toward it is a unit of
// metric progress toward some replica, so the strict-progress
// termination argument of single-target greedy carries over verbatim.
func (r *Router) setDistance(p metric.Point, targets []metric.Point) int {
	best := r.progressDistance(p, targets[0])
	for _, t := range targets[1:] {
		if d := r.progressDistance(p, t); d < best {
			best = d
		}
	}
	return best
}

func (r *Router) trace(res *Result, p metric.Point) {
	if r.opt.TracePath {
		res.Path = append(res.Path, p)
	}
}
