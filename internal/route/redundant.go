package route

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/metric"
	"repro/internal/rng"
)

// RouteHonest performs one greedy search on a walker of the arena and
// accounts for Byzantine drops: routing treats malicious nodes as
// ordinary (their misbehaviour is not locally observable), so the
// message dies, silently and unrecoverably, at the first malicious node
// it moves to. A dropped search reports the walker's hops, reroutes and
// backtracks on reaching that node; the moves after the drop never
// happened. The walk still runs to its end, so the rng draws of the
// searches after it do not depend on where it was dropped.
func (a *Arena) RouteHonest(source *rng.Source, from, to metric.Point) (Result, error) {
	w, err := a.Walker(source, from, []metric.Point{to})
	if err != nil {
		return Result{}, err
	}
	drop := Result{Target: -1} // Hops > 0 once dropped: a drop follows a move
	for more := true; more; {
		more = w.Step()
		if drop.Hops == 0 && w.LastStep() != StepNone && a.r.g.Malicious(w.At()) {
			res := w.Result()
			drop.Hops, drop.Reroutes, drop.Backtracks = res.Hops, res.Reroutes, res.Backtracks
		}
	}
	res := a.Release(w)
	if drop.Hops > 0 {
		return drop, nil
	}
	return res, nil
}

// RouteRedundant sends `copies` redundant copies of a message and
// succeeds when any of them arrives — the Valiant-style defence against
// Byzantine drops: copy 1 goes direct; each further copy is first
// routed to an independent uniformly random live relay and onward from
// there, so the copies traverse nearly independent paths. Hops counts
// the total traffic of all copies (the price of redundancy);
// Reroutes counts relay hand-offs. Every leg runs on a walker of the
// arena.
func (a *Arena) RouteRedundant(source *rng.Source, from, to metric.Point, copies int) (Result, error) {
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
	direct, err := a.RouteHonest(source, from, to)
	if err != nil {
		return Result{}, err
	}
	deliver(direct)
	g := a.r.g
	for c := 1; c < copies; c++ {
		relay, ok := honestishRelay(g, source, from, to)
		if !ok {
			break
		}
		agg.Reroutes++
		leg1, err := a.RouteHonest(source, from, relay)
		if err != nil {
			return agg, err
		}
		agg.Hops += leg1.Hops
		agg.Backtracks += leg1.Backtracks
		if !leg1.Delivered {
			continue
		}
		leg2, err := a.RouteHonest(source, relay, to)
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
