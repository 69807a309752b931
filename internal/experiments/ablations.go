package experiments

import (
	"fmt"

	"repro/internal/analysis"
	"repro/internal/construct"
	"repro/internal/graph"
	"repro/internal/metric"
	"repro/internal/rng"
	"repro/internal/route"
	"repro/internal/sim"
)

func init() {
	register(Experiment{
		ID:          "ablation.replacement",
		Artifact:    "§5 design choice: inverse-distance vs oldest-link replacement",
		Description: "grow networks under both strategies; compare distribution error and routing",
		Run: func(p Params) (*sim.Table, error) {
			p = p.withDefaults(1<<12, 3, 100)
			links := p.lgLinks()
			t := sim.NewTable(fmt.Sprintf("Replacement strategy ablation (n=%d, l=%d)", p.N, links),
				"strategy", "max abs error vs ideal", "failed frac @ p=0.5", "mean hops @ p=0.5")
			for _, strat := range []construct.ReplacementStrategy{construct.InverseDistance, construct.Oldest} {
				cfg := construct.Config{Links: links, Strategy: strat}
				dist := newLinkDist(p.N, p.Trials)
				stats, err := searchTrials(p, dist.grow(cfg), failNodes(0.5), route.Options{DeadEnd: route.Backtrack})
				if err != nil {
					return nil, err
				}
				dist.sum()
				worst, _ := dist.worstError()
				t.AddValues(strat.String(), worst, stats.FailedFraction(), stats.MeanHops())
			}
			return t, nil
		},
	})

	register(Experiment{
		ID:          "ablation.backtrack",
		Artifact:    "§6 design choice: backtracking memory size (paper fixes 5)",
		Description: "sweep backtrack history length at 50% node failure",
		Run: func(p Params) (*sim.Table, error) {
			p = p.withDefaults(1<<13, 5, 100)
			links := p.lgLinks()
			t := sim.NewTable(fmt.Sprintf("Backtrack memory ablation (n=%d, l=%d, p=0.5)", p.N, links),
				"memory", "failed frac", "mean hops", "backtracks/search")
			var opts []route.Options
			for _, mem := range []int{1, 2, 5, 10, 20} {
				opts = append(opts, route.Options{DeadEnd: route.Backtrack, BacktrackMemory: mem})
			}
			cells, err := sweepTrials(p, p.Seed, ideal(ringOf(p.N), links), []float64{0.5}, opts)
			if err != nil {
				return nil, err
			}
			for o, opt := range opts {
				stats := sim.Sum(cells[0][o])
				t.AddValues(opt.BacktrackMemory, stats.FailedFraction(), stats.MeanHops(),
					float64(stats.Backtracks)/float64(stats.Searches))
			}
			return t, nil
		},
	})

	register(Experiment{
		ID:          "ablation.sidedness",
		Artifact:    "§4.2 models: one-sided vs two-sided greedy routing",
		Description: "compare hop counts of the two lower-bound models, no failures",
		Run: func(p Params) (*sim.Table, error) {
			p = p.withDefaults(1<<14, 5, 100)
			t := sim.NewTable(fmt.Sprintf("Sidedness ablation (n=%d)", p.N),
				"links", "two-sided hops", "one-sided hops", "one/two ratio")
			for _, l := range doublings(p.lgLinks()) {
				two, err := searchTrials(p, ideal(ringOf(p.N), l), nil, route.Options{Sidedness: route.TwoSided})
				if err != nil {
					return nil, err
				}
				one, err := searchTrials(p, ideal(ringOf(p.N), l), nil, route.Options{Sidedness: route.OneSided})
				if err != nil {
					return nil, err
				}
				ratio := 0.0
				if two.MeanHops() > 0 {
					ratio = one.MeanHops() / two.MeanHops()
				}
				t.AddValues(l, two.MeanHops(), one.MeanHops(), ratio)
			}
			return t, nil
		},
	})

	register(Experiment{
		ID:          "ablation.exponent",
		Artifact:    "link-distribution exponent sweep (Kleinberg-style sensitivity)",
		Description: "exponent 1 should minimize hops, matching the lower-bound optimality claim",
		Run: func(p Params) (*sim.Table, error) {
			p = p.withDefaults(1<<13, 5, 100)
			links := p.lgLinks()
			t := sim.NewTable(fmt.Sprintf("Exponent ablation (n=%d, l=%d)", p.N, links),
				"exponent", "mean hops")
			for _, exp := range []float64{0, 0.5, 1, 1.5, 2} {
				cfg := graph.BuildConfig{Links: links, Exponent: exp}
				stats, err := searchTrials(p, built(ringOf(p.N), func(ring metric.Space, src *rng.Source) (*graph.Graph, error) {
					return graph.BuildIdeal(ring, cfg, src)
				}), nil, route.Options{})
				if err != nil {
					return nil, err
				}
				t.AddValues(exp, stats.MeanHops())
			}
			return t, nil
		},
	})

	register(Experiment{
		ID:          "theory",
		Artifact:    "Table 1 cross-check: measured hop counts vs upper and lower bounds",
		Description: "evaluate the analysis package formulas against simulation",
		Run: func(p Params) (*sim.Table, error) {
			p = p.withDefaults(1<<14, 5, 100)
			t := sim.NewTable(fmt.Sprintf("Theory vs measurement (n=%d)", p.N),
				"config", "measured hops", "lower bound", "upper bound", "within bounds")
			configs := []struct {
				name  string
				links int
				side  route.Sidedness
			}{
				{"l=1 two-sided", 1, route.TwoSided},
				{"l=4 two-sided", 4, route.TwoSided},
				{"l=lg n two-sided", p.lgLinks(), route.TwoSided},
				{"l=lg n one-sided", p.lgLinks(), route.OneSided},
			}
			for _, cfg := range configs {
				stats, err := searchTrials(p, ideal(ringOf(p.N), cfg.links), nil,
					route.Options{Sidedness: cfg.side, DirectedOnly: true})
				if err != nil {
					return nil, err
				}
				oneSided := cfg.side == route.OneSided
				lower := analysis.Theorem10LowerBound(p.N, cfg.links, oneSided)
				var upper float64
				if cfg.links == 1 {
					upper = analysis.SingleLinkUpperBound(p.N)
				} else {
					upper = analysis.MultiLinkUpperBound(p.N, cfg.links)
				}
				measured := stats.MeanHops()
				t.AddValues(cfg.name, measured, lower, upper,
					measured >= lower*0.1 && measured <= upper)
			}
			return t, nil
		},
	})
}
