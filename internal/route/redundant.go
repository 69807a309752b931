package route

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/metric"
	"repro/internal/rng"
)

// HonestSearcher runs RouteHonest and RouteRedundant searches one after
// another on one recycled walker, as a Searcher runs Route: after its
// first search it allocates nothing. The drop accounting reads every
// visited node, so the walker always traces; a Result keeps that path
// only when its Router's options trace, and then it aliases the
// walker's buffer and is valid until the next search. An HonestSearcher
// is not safe for concurrent use.
type HonestSearcher struct {
	s    *Searcher
	keep bool
}

// NewHonestSearcher returns an HonestSearcher for r's searches.
func (r *Router) NewHonestSearcher() *HonestSearcher {
	traced := r
	if !r.opt.TracePath {
		copied := *r
		copied.opt.TracePath = true
		traced = &copied
	}
	return &HonestSearcher{s: traced.NewSearcher(), keep: r.opt.TracePath}
}

// RouteHonest performs one greedy search and accounts for Byzantine
// drops: routing treats malicious nodes as ordinary (their misbehaviour
// is not locally observable), so the message dies, silently and
// unrecoverably, at the first malicious node it visits. Hops up to the
// drop point are still charged.
func (h *HonestSearcher) RouteHonest(source *rng.Source, from, to metric.Point) (Result, error) {
	res, err := h.s.Route(source, from, to)
	if err != nil {
		return Result{}, err
	}
	g := h.s.w.r.g
	for i, p := range res.Path {
		if i == 0 {
			continue // the (honest) origin
		}
		if g.Malicious(p) {
			// Message silently dropped at hop i; the hops after the
			// drop never happened.
			return Result{Delivered: false, Hops: i, Reroutes: res.Reroutes, Target: -1}, nil
		}
	}
	if !h.keep {
		res.Path = nil
	}
	return res, nil
}

// RouteRedundant sends `copies` redundant copies of a message and
// succeeds when any of them arrives — the Valiant-style defence against
// Byzantine drops: copy 1 goes direct; each further copy is first
// routed to an independent uniformly random live relay and onward from
// there, so the copies traverse nearly independent paths. Hops counts
// the total traffic of all copies (the price of redundancy);
// Reroutes counts relay hand-offs. Every leg runs on the searcher's
// walker.
func (h *HonestSearcher) RouteRedundant(source *rng.Source, from, to metric.Point, copies int) (Result, error) {
	if copies < 1 {
		return Result{}, fmt.Errorf("route: need at least one copy, got %d", copies)
	}
	agg := Result{Target: -1}
	deliver := func(res Result) {
		agg.Hops += res.Hops
		agg.Backtracks += res.Backtracks
		if res.Delivered {
			agg.Delivered = true
			agg.Target = res.Target
		}
	}
	direct, err := h.RouteHonest(source, from, to)
	if err != nil {
		return Result{}, err
	}
	deliver(direct)
	g := h.s.w.r.g
	for c := 1; c < copies; c++ {
		relay, ok := honestishRelay(g, source, from, to)
		if !ok {
			break
		}
		agg.Reroutes++
		leg1, err := h.RouteHonest(source, from, relay)
		if err != nil {
			return agg, err
		}
		agg.Hops += leg1.Hops
		agg.Backtracks += leg1.Backtracks
		if !leg1.Delivered {
			continue
		}
		leg2, err := h.RouteHonest(source, relay, to)
		if err != nil {
			return agg, err
		}
		deliver(leg2)
	}
	return agg, nil
}

// honestishRelay picks a random live relay distinct from the endpoints.
// The sender cannot identify Byzantine nodes, so the relay may be
// malicious — in that case the copy dies at the relay, which the drop
// accounting in RouteHonest already covers for the first leg's last
// hop.
func honestishRelay(g *graph.Graph, source *rng.Source, from, to metric.Point) (metric.Point, bool) {
	for i := 0; i < 64; i++ {
		p, ok := g.RandomAlive(source)
		if !ok {
			return 0, false
		}
		if p != from && p != to {
			return p, true
		}
	}
	return 0, false
}
