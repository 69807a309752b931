package experiments

import (
	"fmt"
	"math"

	"repro/internal/construct"
	"repro/internal/graph"
	"repro/internal/mathx"
	"repro/internal/metric"
	"repro/internal/rng"
	"repro/internal/route"
	"repro/internal/sim"
)

// linkDist averages the empirical link-length distribution of the
// networks a set of trials grows with the §5 heuristic: probs[d] is the
// mean probability of a long link of length d on a ring of n points.
// Each trial keeps its own share of the average, and sum folds the
// shares in trial order once every trial is done, so the float sum is
// the same whatever order the trials finish in.
type linkDist struct {
	n      int
	shares [][]float64 // per trial, written only by that trial
	probs  []float64
}

func newLinkDist(n, trials int) *linkDist {
	return &linkDist{n: n, shares: make([][]float64, trials), probs: make([]float64, (n-1)/2+1)}
}

// maxD is the ring's largest distance.
func (d *linkDist) maxD() int { return len(d.probs) - 1 }

// grow returns the buildFunc that grows a trial's network on the ring
// under cfg and keeps its link lengths as the trial's share.
func (d *linkDist) grow(cfg construct.Config) buildFunc {
	return func(trial int, src *rng.Source) (*graph.Graph, error) {
		ring, err := metric.NewRing(d.n)
		if err != nil {
			return nil, err
		}
		g, err := construct.Grow(ring, cfg, src)
		if err != nil {
			return nil, err
		}
		h := g.LinkLengthHistogram()
		share := make([]float64, len(d.probs))
		for i := 1; i < len(share); i++ {
			share[i] = h.Probability(i-1) / float64(len(d.shares))
		}
		d.shares[trial] = share
		return g, nil
	}
}

// sum folds the trials' shares into probs, in trial order.
func (d *linkDist) sum() {
	for _, share := range d.shares {
		for i, v := range share {
			d.probs[i] += v
		}
	}
}

// worstError is the largest |derived − ideal| over all distances, the
// ideal being the paper's 1/(d·H) law, and the distance it occurs at.
func (d *linkDist) worstError() (worst float64, at int) {
	hm := mathx.Harmonic(d.maxD())
	for i := 1; i < len(d.probs); i++ {
		if e := math.Abs(d.probs[i] - 1/(float64(i)*hm)); e > worst {
			worst, at = e, i
		}
	}
	return worst, at
}

// derivedDistribution grows p.Trials networks with the §5 heuristic and
// returns their averaged link-length distribution; no message routes.
func derivedDistribution(p Params) (*linkDist, error) {
	dist := newLinkDist(p.N, p.Trials)
	_, err := sim.RunDetailed(p.Seed, p.Trials, p.Workers, trial(p, dist.grow(construct.Config{Links: p.lgLinks()}), nil,
		func(*graph.Graph, *rng.Source, int) (sim.SearchStats, error) { return sim.SearchStats{}, nil }))
	dist.sum()
	return dist, err
}

func init() {
	register(Experiment{
		ID:          "fig5a",
		Artifact:    "Figure 5(a): derived vs ideal link-length distribution",
		Description: "grow networks with the §5 heuristic; compare P(link length) to 1/(d·H)",
		Run: func(p Params) (*sim.Table, error) {
			p = p.withDefaults(1<<12, 5, 0) // paper: n=2^14, 14 links, 10 networks
			dist, err := derivedDistribution(p)
			if err != nil {
				return nil, err
			}
			hm := mathx.Harmonic(dist.maxD())
			t := sim.NewTable(fmt.Sprintf("Figure 5(a) (n=%d, l=%d, %d networks)", p.N, p.lgLinks(), p.Trials),
				"link length", "derived P", "ideal P", "ratio")
			for _, d := range doublings(dist.maxD()) {
				ideal := 1 / (float64(d) * hm)
				t.AddValues(d, dist.probs[d], ideal, dist.probs[d]/ideal)
			}
			return t, nil
		},
	})

	register(Experiment{
		ID:          "fig5b",
		Artifact:    "Figure 5(b): absolute error of the derived distribution",
		Description: "same networks as fig5a; |derived − ideal| per distance, plus the maximum",
		Run: func(p Params) (*sim.Table, error) {
			p = p.withDefaults(1<<12, 5, 0)
			dist, err := derivedDistribution(p)
			if err != nil {
				return nil, err
			}
			hm := mathx.Harmonic(dist.maxD())
			t := sim.NewTable(fmt.Sprintf("Figure 5(b) (n=%d, l=%d)", p.N, p.lgLinks()),
				"link length", "abs error")
			for _, d := range doublings(dist.maxD()) {
				t.AddValues(d, math.Abs(dist.probs[d]-1/(float64(d)*hm)))
			}
			worst, worstD := dist.worstError()
			t.Add("max", sim.F(worst))
			t.Add("argmax", sim.F(worstD))
			return t, nil
		},
	})

	register(Experiment{
		ID:          "fig6a",
		Artifact:    "Figure 6(a): fraction of failed searches vs fraction of failed nodes",
		Description: "three dead-end strategies on an ideal network under mass node failure (any -dim)",
		Run:         figure6("failed frac", sim.SearchStats.FailedFraction, 1),
	})

	register(Experiment{
		ID:          "fig6b",
		Artifact:    "Figure 6(b): mean delivery time of successful searches",
		Description: "same sweep as fig6a, reporting hops of delivered messages (any -dim)",
		Run:         figure6("mean hops", sim.SearchStats.MeanHops, 1),
	})

	register(Experiment{
		ID:          "fig6a.d2",
		Artifact:    "Figure 6(a) replayed on a 2-D torus (§7's higher-dimensional extension)",
		Description: "the identical node-failure sweep and dead-end strategies, dimension 2",
		Run:         figure6("failed frac", sim.SearchStats.FailedFraction, 2),
	})

	register(Experiment{
		ID:          "fig6b.d2",
		Artifact:    "Figure 6(b) replayed on a 2-D torus (§7's higher-dimensional extension)",
		Description: "mean delivery time of the 2-D node-failure sweep",
		Run:         figure6("mean hops", sim.SearchStats.MeanHops, 2),
	})

	register(Experiment{
		ID:          "fig7",
		Artifact:    "Figure 7: failed searches, heuristic-built vs ideal network",
		Description: "compare §5-constructed networks to directly sampled ones under node failure (any -dim)",
		Run: func(p Params) (*sim.Table, error) {
			p = p.withDefaults(1<<12, 3, 100) // paper: 16384 nodes, 10 nets, 1000 msgs
			links := p.lgLinks()
			t := sim.NewTable(fmt.Sprintf("Figure 7 (%s, n=%d, l=%d)", p.spaceDesc(), p.N, links),
				"p(node fail)", "constructed failed frac", "ideal failed frac",
				"constructed stderr", "ideal stderr")
			builds := []buildFunc{
				built(p.space, func(sp metric.Space, src *rng.Source) (*graph.Graph, error) {
					return construct.Grow(sp, construct.Config{Links: links}, src)
				}),
				ideal(p.space, links),
			}
			probs := []float64{0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9}
			var cells [2][][][]sim.SearchStats // constructed, ideal
			for i, build := range builds {
				var err error
				if cells[i], err = sweepTrials(p, p.Seed+uint64(i), build, probs, []route.Options{{DeadEnd: route.Terminate}}); err != nil {
					return nil, err
				}
			}
			for l, prob := range probs {
				con, id := sim.FailedFractionInterval(cells[0][l][0]), sim.FailedFractionInterval(cells[1][l][0])
				t.AddValues(prob, con.Mean, id.Mean, con.StdErr, id.StdErr)
			}
			return t, nil
		},
	})
}

// figure6 is the §6 failure sweep over the space Params selects, at
// dimension minDim or above — the same harness drives the paper's 1-D
// ring and the d-dimensional torus replay. It reports stat per
// dead-end strategy: the failed-search fraction (Figure 6a) or the mean
// delivery time of successful searches (Figure 6b).
func figure6(statName string, stat func(sim.SearchStats) float64, minDim int) func(Params) (*sim.Table, error) {
	return func(p Params) (*sim.Table, error) {
		if p.Dim < minDim {
			p.Dim = minDim
		}
		p = p.withDefaults(1<<14, 5, 100) // paper: n=2^17, 1000 sims x 100 msgs
		links := p.lgLinks()
		strategies := []route.Options{{DeadEnd: route.Terminate}, {DeadEnd: route.RandomReroute}, {DeadEnd: route.Backtrack}}
		t := sim.NewTable(
			fmt.Sprintf("Figure 6 [%s] (%s, n=%d, l=%d, %d trials x %d msgs)",
				statName, p.spaceDesc(), p.N, links, p.Trials, p.Msgs),
			"p(node fail)", "terminate", "random-reroute", "backtracking")
		// One build per trial; each level crashes its fraction of that
		// network, routes every strategy over the same crashed nodes
		// from the same stream, and revives them.
		probs := []float64{0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8}
		cells, err := sweepTrials(p, p.Seed, ideal(p.space, links), probs, strategies)
		if err != nil {
			return nil, err
		}
		for l, prob := range probs {
			t.AddValues(prob, stat(sim.Sum(cells[l][0])), stat(sim.Sum(cells[l][1])), stat(sim.Sum(cells[l][2])))
		}
		return t, nil
	}
}
