package experiments

import (
	"fmt"

	"repro/internal/failure"
	"repro/internal/graph"
	"repro/internal/keyspace"
	"repro/internal/mathx"
	"repro/internal/metric"
	"repro/internal/rng"
	"repro/internal/route"
	"repro/internal/sim"
)

func init() {
	register(Experiment{
		ID:       "ext.2d",
		Artifact: "§7 future work: the design in a 2-D metric space",
		Description: "exponent sweep and failure sweep on a torus through the generic pipeline; " +
			"exponent d=2 is the asymptotic optimum (its win over lower exponents emerges beyond laptop n)",
		Run: func(p Params) (*sim.Table, error) {
			if p.Dim <= 1 {
				p.Dim = 2
			}
			p = p.withDefaults(1<<12, 3, 150)
			if p.Side < 8 {
				p.Side = 8
				p.N = mathx.IPow(p.Side, p.Dim)
			}
			links := p.lgLinks()
			t := sim.NewTable(fmt.Sprintf("2-D extension (%s, n=%d, l=%d)", p.spaceDesc(), p.N, links),
				"config", "mean hops", "failed frac")

			maxHops := 4*p.Side + 64
			for _, r := range []struct {
				label              string
				exponent, failFrac float64
				deadEnd            route.DeadEndPolicy
			}{
				{"exponent 1, no failures", 1, 0, route.Terminate},
				{"exponent 2, no failures", 2, 0, route.Terminate},
				{"exponent 3, no failures", 3, 0, route.Terminate},
				{"uniform targets, no failures", 0, 0, route.Terminate},
				{"exponent 2, 0.3 failed, terminate", 2, 0.3, route.Terminate},
				{"exponent 2, 0.3 failed, backtrack", 2, 0.3, route.Backtrack},
				{"exponent 2, 0.5 failed, terminate", 2, 0.5, route.Terminate},
				{"exponent 2, 0.5 failed, backtrack", 2, 0.5, route.Backtrack},
			} {
				cfg := graph.BuildConfig{Links: links, Exponent: r.exponent}
				var damage damageFunc
				if r.failFrac > 0 {
					damage = failNodes(r.failFrac)
				}
				stats, err := searchTrials(p, built(p.space, func(sp metric.Space, src *rng.Source) (*graph.Graph, error) {
					return graph.BuildIdeal(sp, cfg, src)
				}), damage, route.Options{DeadEnd: r.deadEnd, MaxHops: maxHops})
				if err != nil {
					return nil, err
				}
				t.AddValues(r.label, stats.MeanHops(), stats.FailedFraction())
			}
			return t, nil
		},
	})

	register(Experiment{
		ID:       "ext.byzantine",
		Artifact: "§7 future work: robustness against Byzantine (message-dropping) nodes",
		Description: "malicious nodes silently drop traffic; Valiant-style redundant routing " +
			"through random relays recovers deliverability",
		Run: func(p Params) (*sim.Table, error) {
			p = p.withDefaults(1<<13, 3, 150)
			links := p.lgLinks()
			t := sim.NewTable(fmt.Sprintf("Byzantine extension (n=%d, l=%d)", p.N, links),
				"p(malicious)", "direct success", "2 copies", "4 copies")
			for _, prob := range []float64{0, 0.05, 0.1, 0.2, 0.3} {
				prob := prob
				row := make([]float64, 3)
				for ci, copies := range []int{1, 2, 4} {
					copies := copies
					stats, err := sim.Run(p.Seed, p.Trials, p.Workers, trial(p, ideal(ringOf(p.N), links),
						func(g *graph.Graph, src *rng.Source) error {
							_, err := failure.MarkMalicious(g, prob, src)
							return err
						},
						func(g *graph.Graph, src *rng.Source, msgs int) (sim.SearchStats, error) {
							r := route.New(g, route.Options{})
							var s sim.SearchStats
							for i := 0; i < msgs; i++ {
								from, ok1 := honestNode(g, src)
								to, ok2 := honestNode(g, src)
								if !ok1 || !ok2 || from == to {
									continue
								}
								res, err := r.RouteRedundant(src, from, to, copies)
								if err != nil {
									return s, err
								}
								s.Record(res)
							}
							return s, nil
						}))
					if err != nil {
						return nil, err
					}
					row[ci] = 1 - stats.FailedFraction()
				}
				t.AddValues(prob, row[0], row[1], row[2])
			}
			return t, nil
		},
	})
}

func init() {
	register(Experiment{
		ID:       "ext.physical",
		Artifact: "§2 / Figure 1: physical machines vs virtual points under failure",
		Description: "machines own many hashed points; crashing machines (correlated point " +
			"deaths) should look identical to independent point failures — the hash " +
			"de-correlates failures, which is what makes §6's model faithful",
		Run: func(p Params) (*sim.Table, error) {
			p = p.withDefaults(1<<13, 3, 150)
			const resourcesPerMachine = 16
			links := p.lgLinks()
			t := sim.NewTable(
				fmt.Sprintf("Physical vs virtual failures (n=%d, %d resources/machine)", p.N, resourcesPerMachine),
				"fraction dead", "failed frac (machine crashes)", "failed frac (independent points)")
			for _, frac := range []float64{0.2, 0.4, 0.6} {
				frac := frac
				row := make([]float64, 2)
				for mode, crashMachines := range []bool{true, false} {
					crashMachines := crashMachines
					var damage damageFunc
					if !crashMachines {
						damage = failNodes(frac)
					}
					stats, err := searchTrials(p, func(trial int, src *rng.Source) (*graph.Graph, error) {
						mapping, err := keyspace.NewMapping(p.N)
						if err != nil {
							return nil, err
						}
						machines := p.N / resourcesPerMachine / 2 // half-full space
						for mID := 0; mID < machines; mID++ {
							for r := 0; r < resourcesPerMachine; r++ {
								key := keyspace.Key(fmt.Sprintf("t%d-m%d-r%d", trial, mID, r))
								// Skip collisions: the space is half
								// empty, so a retry-free skip only
								// shaves a few resources.
								_, _ = mapping.Add(keyspace.PhysID(mID), key)
							}
						}
						ring, err := metric.NewRing(p.N)
						if err != nil {
							return nil, err
						}
						g, err := graph.BuildIdealWithPresence(ring, graph.PaperConfig(links),
							mapping.PresenceMask(), src)
						if err != nil || !crashMachines {
							return g, err
						}
						// Crash whole machines until the desired
						// fraction of points is dead.
						targetDead := int(frac * float64(g.AliveCount()))
						dead := 0
						for _, mID := range src.Perm(machines) {
							if dead >= targetDead {
								break
							}
							for _, pt := range mapping.FailPhysical(keyspace.PhysID(mID)) {
								if g.Fail(pt) {
									dead++
								}
							}
						}
						return g, nil
					}, damage, route.Options{DeadEnd: route.Backtrack})
					if err != nil {
						return nil, err
					}
					row[mode] = stats.FailedFraction()
				}
				t.AddValues(frac, row[0], row[1])
			}
			return t, nil
		},
	})
}

// honestNode draws a random live, non-malicious node.
func honestNode(g *graph.Graph, src *rng.Source) (metric.Point, bool) {
	for i := 0; i < 256; i++ {
		p, ok := g.RandomAlive(src)
		if !ok {
			return 0, false
		}
		if !g.Malicious(p) {
			return p, true
		}
	}
	return 0, false
}
