package experiments

import (
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
	// damageFunc fails part of a freshly built network.
	damageFunc func(g *graph.Graph, src *rng.Source) error
	// searchFunc routes msgs searches over the damaged network.
	searchFunc func(g *graph.Graph, src *rng.Source, msgs int) (sim.SearchStats, error)
)

// trial is one trial's build → damage (nil: none) → search, each step
// drawing from the trial's stream.
func trial(p Params, build buildFunc, damage damageFunc, search searchFunc) sim.TrialFunc {
	return func(i int, src *rng.Source) (sim.SearchStats, error) {
		g, err := build(i, src)
		if err != nil {
			return sim.SearchStats{}, err
		}
		if damage != nil {
			if err := damage(g, src); err != nil {
				return sim.SearchStats{}, err
			}
		}
		return search(g, src, p.Msgs)
	}
}

// trialStats runs trial once per trial on the streams of seed and
// returns each trial's statistics, in trial order.
func trialStats(p Params, seed uint64, build buildFunc, damage damageFunc, search searchFunc) ([]sim.SearchStats, error) {
	return sim.RunDetailed(seed, p.Trials, p.Workers, trial(p, build, damage, search))
}

// searchTrials runs trial at Params.Seed with random searches between
// live nodes routed under opt, summed over the trials.
func searchTrials(p Params, build buildFunc, damage damageFunc, opt route.Options) (sim.SearchStats, error) {
	return sim.Run(p.Seed, p.Trials, p.Workers, trial(p, build, damage, routed(opt)))
}

// routed is §6's measurement: uniformly random live source/destination
// pairs routed under opt.
func routed(opt route.Options) searchFunc {
	return func(g *graph.Graph, src *rng.Source, msgs int) (sim.SearchStats, error) {
		return sim.MeasureSearches(g, route.New(g, opt), src, msgs)
	}
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

// ideal samples the paper's network directly: links long links per
// node from the inverse power law at the space's dimension-harmonic
// exponent (exponent 1 on the ring and the line).
func ideal(space spaceFunc, links int) buildFunc {
	return built(space, func(sp metric.Space, src *rng.Source) (*graph.Graph, error) {
		return graph.BuildIdeal(sp, graph.PaperConfigFor(sp, links), src)
	})
}

// failNodes crashes the fraction frac of the live nodes.
func failNodes(frac float64) damageFunc {
	return func(g *graph.Graph, src *rng.Source) error {
		_, err := failure.FailNodesFraction(g, frac, src)
		return err
	}
}

// failLinks keeps each long link up independently with probability up.
func failLinks(up float64) damageFunc {
	return func(g *graph.Graph, src *rng.Source) error {
		_, err := failure.FailLinks(g, up, src)
		return err
	}
}
