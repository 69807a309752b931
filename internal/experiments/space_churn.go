package experiments

import (
	"fmt"

	"repro/internal/construct"
	"repro/internal/failure"
	"repro/internal/metric"
	"repro/internal/rng"
	"repro/internal/route"
	"repro/internal/sim"
)

func init() {
	register(Experiment{
		ID:       "ablation.space",
		Artifact: "§2/§4 spaces: line (the analysis space) vs ring (the Chord-like space)",
		Description: "same distribution and routing on both 1-D spaces; the line's boundary " +
			"lengthens searches near the edges, the ring is homogeneous",
		Run: func(p Params) (*sim.Table, error) {
			p = p.withDefaults(1<<13, 5, 150)
			t := sim.NewTable(fmt.Sprintf("Line vs ring (n=%d)", p.N),
				"space", "links", "mean hops", "failed frac @ p=0.5 (backtrack)")
			spaces := []struct {
				name string
				mk   spaceFunc
			}{
				{"ring", ringOf(p.N)},
				{"line", func() (metric.Space, error) { return metric.NewLine(p.N) }},
			}
			for _, sp := range spaces {
				for _, links := range []int{1, p.lgLinks()} {
					cells, err := sweepTrials(p, p.Seed, ideal(sp.mk, links), append([]damage{intact}, crashFrac.at(0.5)...),
						routed(route.Options{}, route.Options{DeadEnd: route.Backtrack}))
					if err != nil {
						return nil, err
					}
					t.AddValues(sp.name, links, sim.Sum(cells[0][0]).MeanHops(), sim.Sum(cells[1][1]).FailedFraction())
				}
			}
			return t, nil
		},
	})

	register(Experiment{
		ID:       "ext.churn",
		Artifact: "self-stabilization (§1's goal): routing quality through churn-and-repair cycles",
		Description: "alternate batches of crashes and §5 repair; failed-search fraction " +
			"spikes after damage and returns to zero after healing",
		Run: func(p Params) (*sim.Table, error) {
			p = p.withDefaults(1<<11, 3, 150)
			links := p.lgLinks()
			const cycles = 4
			type row struct {
				phase      string
				failedFrac float64
				meanHops   float64
			}
			rowsPerTrial := 1 + 2*cycles
			agg := make([]row, rowsPerTrial)

			results := make([][]row, p.Trials)
			_, err := sim.Run(p.Seed, p.Trials, p.Workers, func(trial int, src *rng.Source) (sim.SearchStats, error) {
				ring, err := metric.NewRing(p.N)
				if err != nil {
					return sim.SearchStats{}, err
				}
				b, err := construct.NewBuilder(ring, construct.Config{Links: links}, src)
				if err != nil {
					return sim.SearchStats{}, err
				}
				for _, i := range src.Perm(p.N) {
					if err := b.Add(metric.Point(i)); err != nil {
						return sim.SearchStats{}, err
					}
				}
				local := make([]row, 0, rowsPerTrial)
				measure := func(phase string) error {
					r := route.New(b.Graph(), route.Options{DeadEnd: route.Backtrack})
					s, err := sim.MeasureSearches(b.Graph(), r, src, p.Msgs)
					if err != nil {
						return err
					}
					local = append(local, row{phase, s.FailedFraction(), s.MeanHops()})
					return nil
				}
				if err := measure("initial"); err != nil {
					return sim.SearchStats{}, err
				}
				for c := 1; c <= cycles; c++ {
					// Damage: crash 20% of live nodes (no repair yet).
					if _, err := failure.FailNodesFraction(b.Graph(), 0.2, src); err != nil {
						return sim.SearchStats{}, err
					}
					if err := measure(fmt.Sprintf("cycle %d: damaged", c)); err != nil {
						return sim.SearchStats{}, err
					}
					// Repair: departed nodes leave properly (links
					// regenerate) and fresh nodes arrive at the
					// vacated points.
					g := b.Graph()
					for i := 0; i < p.N; i++ {
						pt := metric.Point(i)
						if g.Exists(pt) && !g.Alive(pt) {
							if err := b.Remove(pt); err != nil {
								return sim.SearchStats{}, err
							}
							if err := b.Add(pt); err != nil {
								return sim.SearchStats{}, err
							}
						}
					}
					if err := measure(fmt.Sprintf("cycle %d: repaired", c)); err != nil {
						return sim.SearchStats{}, err
					}
				}
				results[trial] = local
				return sim.SearchStats{}, nil
			})
			if err != nil {
				return nil, err
			}
			// Average phases across trials.
			for _, local := range results {
				for i, r := range local {
					agg[i].phase = r.phase
					agg[i].failedFrac += r.failedFrac / float64(p.Trials)
					agg[i].meanHops += r.meanHops / float64(p.Trials)
				}
			}
			t := sim.NewTable(fmt.Sprintf("Churn and self-repair (n=%d, l=%d, backtracking)", p.N, links),
				"phase", "failed frac", "mean hops")
			for _, r := range agg {
				t.AddValues(r.phase, r.failedFrac, r.meanHops)
			}
			return t, nil
		},
	})
}
