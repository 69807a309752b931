package experiments

import (
	"fmt"

	"repro/internal/failure"
	"repro/internal/graph"
	"repro/internal/metric"
	"repro/internal/rng"
	"repro/internal/route"
	"repro/internal/sim"
)

// The search-trial runner is the protocol of the paper's §6 and of
// every table1/figure/ablation/baseline experiment built on it: on each
// of Params.Trials independent rng streams, build a network, damage it,
// route Params.Msgs searches, and add up. An experiment names only what
// differs — how the network is built, what fails, how messages route —
// and every step draws from the trial's one stream in that order, so a
// table is a function of (Params, seed) whatever the worker count.

type (
	// spaceFunc makes one trial's metric space.
	spaceFunc func() (metric.Space, error)
	// buildFunc makes one trial's network from the trial's stream.
	buildFunc func(trial int, src *rng.Source) (*graph.Graph, error)
	// searchFunc routes msgs searches over the damaged network.
	searchFunc func(g *graph.Graph, src *rng.Source, msgs int) (sim.SearchStats, error)
)

// A damage is one level of a sweep: apply fails part of a built network
// at p and returns how many nodes or links it took down, and undo
// restores them in place and returns how many it restored. Each kind
// below is a damage at p = 0; at sets p.
type damage struct {
	apply func(g *graph.Graph, p float64, src *rng.Source) (int, error)
	undo  func(g *graph.Graph) int
	p     float64
}

var (
	// intact fails nothing.
	intact = damage{apply: func(*graph.Graph, float64, *rng.Source) (int, error) { return 0, nil },
		undo: func(*graph.Graph) int { return 0 }}
	// crashFrac crashes the fraction p of the live nodes.
	crashFrac = damage{apply: func(g *graph.Graph, p float64, src *rng.Source) (int, error) {
		return failure.FailNodesFraction(g, p, src)
	}, undo: reviveAll}
	// crashProb crashes each live node with probability p.
	crashProb = damage{apply: failure.FailNodesProb, undo: reviveAll}
	// linksUp keeps each long link up with probability p.
	linksUp = damage{apply: failure.FailLinks, undo: (*graph.Graph).RestoreLinks}
	// maliciousProb turns each live node Byzantine with probability p.
	maliciousProb = damage{apply: failure.MarkMalicious, undo: func(g *graph.Graph) int {
		return each(g, func(pt metric.Point) bool { return g.Malicious(pt) && g.SetMalicious(pt, false) == nil })
	}}
)

// at is d at each of ps, in order.
func (d damage) at(ps ...float64) []damage {
	ds := make([]damage, len(ps))
	for i, p := range ps {
		ds[i], ds[i].p = d, p
	}
	return ds
}

func reviveAll(g *graph.Graph) int { return each(g, g.Revive) }

// each counts the points of g at which restore reports a change.
func each(g *graph.Graph, restore func(metric.Point) bool) int {
	n := 0
	for pt := metric.Point(0); int(pt) < g.Size(); pt++ {
		if restore(pt) {
			n++
		}
	}
	return n
}

// sweepTrials runs the protocol over a grid of damage levels × searches
// at one build per trial, and returns cells[level][search][trial].
// Trial i builds once; each level applies its damage from a copy of the
// post-build stream, runs every search from its own copy of the
// post-damage stream and undoes the damage in place. Damage and its
// undo touch only alive, malicious and link-up flags (RestoreLinks
// rebuilds the in-link order a build leaves), and a search only reads
// the graph, so every cell sees the graph and the stream it would have
// seen on a network built for it alone. The undo must restore exactly
// what the damage took down: more means the build left something down,
// which an undo would otherwise heal silently. Trial i writes only
// index i.
func sweepTrials(p Params, seed uint64, build buildFunc, levels []damage, searches []searchFunc) ([][][]sim.SearchStats, error) {
	cells := make([][][]sim.SearchStats, len(levels))
	for l := range cells {
		cells[l] = make([][]sim.SearchStats, len(searches))
		for s := range searches {
			cells[l][s] = make([]sim.SearchStats, p.Trials)
		}
	}
	_, err := sim.RunDetailed(seed, p.Trials, p.Workers, func(i int, src *rng.Source) (sim.SearchStats, error) {
		g, err := build(i, src)
		if err != nil {
			return sim.SearchStats{}, err
		}
		afterBuild := *src
		for l, d := range levels {
			afterDamage := afterBuild
			down, err := d.apply(g, d.p, &afterDamage)
			if err != nil {
				return sim.SearchStats{}, err
			}
			for s, search := range searches {
				stream := afterDamage
				if cells[l][s][i], err = search(g, &stream, p.Msgs); err != nil {
					return sim.SearchStats{}, err
				}
			}
			if restored := d.undo(g); restored != down {
				return sim.SearchStats{}, fmt.Errorf("experiments: trial %d level %d: undo restored %d of %d taken down; the build left some down", i, l, restored, down)
			}
		}
		return sim.SearchStats{}, nil
	})
	return cells, err
}

// searchTrials is the one-cell sweep: opt routed over the intact
// network, summed over the trials.
func searchTrials(p Params, build buildFunc, opt route.Options) (sim.SearchStats, error) {
	cells, err := sweepTrials(p, p.Seed, build, []damage{intact}, routed(opt))
	return sim.Sum(cells[0][0]), err
}

// routed is §6's measurement under each of opts: uniformly random live
// source/destination pairs.
func routed(opts ...route.Options) []searchFunc {
	searches := make([]searchFunc, len(opts))
	for i, opt := range opts {
		opt := opt
		searches[i] = func(g *graph.Graph, src *rng.Source, msgs int) (sim.SearchStats, error) {
			return sim.MeasureSearches(g, route.New(g, opt), src, msgs)
		}
	}
	return searches
}

func ringOf(n int) spaceFunc {
	return func() (metric.Space, error) { return metric.NewRing(n) }
}

// built makes each trial's space and hands it, with the trial's
// stream, to mk.
func built(space spaceFunc, mk func(sp metric.Space, src *rng.Source) (*graph.Graph, error)) buildFunc {
	return func(_ int, src *rng.Source) (*graph.Graph, error) {
		sp, err := space()
		if err != nil {
			return nil, err
		}
		return mk(sp, src)
	}
}

// idealAt samples links long links per node from the inverse power law
// at exponent.
func idealAt(space spaceFunc, links int, exponent float64) buildFunc {
	return built(space, func(sp metric.Space, src *rng.Source) (*graph.Graph, error) {
		return graph.BuildIdeal(sp, graph.BuildConfig{Links: links, Exponent: exponent}, src)
	})
}

// ideal samples the paper's network directly: links long links per
// node from the inverse power law at the space's dimension-harmonic
// exponent (exponent 1 on the ring and the line).
func ideal(space spaceFunc, links int) buildFunc {
	return built(space, func(sp metric.Space, src *rng.Source) (*graph.Graph, error) {
		return graph.BuildIdeal(sp, graph.PaperConfigFor(sp, links), src)
	})
}
