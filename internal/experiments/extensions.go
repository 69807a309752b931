package experiments

import (
	"fmt"

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

			opts := []route.Options{{DeadEnd: route.Terminate, MaxHops: 4*p.Side + 64}, {DeadEnd: route.Backtrack, MaxHops: 4*p.Side + 64}}
			// Exponent 2's rows, healthy and failed, share one build per trial.
			fracs := []float64{0.3, 0.5}
			cells, err := sweepTrials(p, p.Seed, idealAt(p.space, links, 2), append([]damage{intact}, crashFrac.at(fracs...)...), routed(opts...))
			if err != nil {
				return nil, err
			}
			for _, r := range []struct {
				label    string
				exponent float64
			}{{"exponent 1", 1}, {"exponent 2", 2}, {"exponent 3", 3}, {"uniform targets", 0}} {
				stats := sim.Sum(cells[0][0])
				if r.exponent != 2 {
					if stats, err = searchTrials(p, idealAt(p.space, links, r.exponent), opts[0]); err != nil {
						return nil, err
					}
				}
				t.AddValues(r.label+", no failures", stats.MeanHops(), stats.FailedFraction())
			}
			for l, frac := range fracs {
				for o, policy := range []string{"terminate", "backtrack"} {
					stats := sim.Sum(cells[1+l][o])
					t.AddValues(fmt.Sprintf("exponent 2, %v failed, %s", frac, policy), stats.MeanHops(), stats.FailedFraction())
				}
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
			probs := []float64{0, 0.05, 0.1, 0.2, 0.3}
			cells, err := sweepTrials(p, p.Seed, ideal(ringOf(p.N), links), maliciousProb.at(probs...),
				[]searchFunc{redundant(1), redundant(2), redundant(4)})
			if err != nil {
				return nil, err
			}
			delivered := func(l, c int) float64 { return 1 - sim.Sum(cells[l][c]).FailedFraction() }
			for l, prob := range probs {
				t.AddValues(prob, delivered(l, 0), delivered(l, 1), delivered(l, 2))
			}
			return t, nil
		},
	})
}

// redundant routes msgs searches between random honest nodes, each as
// copies Valiant-style copies through random relays, every leg on a
// walker of one route.Arena.
func redundant(copies int) searchFunc {
	return func(g *graph.Graph, src *rng.Source, msgs int) (sim.SearchStats, error) {
		r := route.New(g, route.Options{}).NewArena()
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
	}
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
			// hosted builds the trial's machines and network, then
			// crashes whole machines until the fraction crash of the
			// points is dead (none at crash 0).
			hosted := func(crash float64) buildFunc {
				return func(trial int, src *rng.Source) (*graph.Graph, error) {
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
					if err != nil || crash == 0 {
						return g, err
					}
					targetDead := int(crash * float64(g.AliveCount()))
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
				}
			}
			opt := route.Options{DeadEnd: route.Backtrack}
			// The independent crashes share one build per trial.
			fracs := []float64{0.2, 0.4, 0.6}
			cells, err := sweepTrials(p, p.Seed, hosted(0), crashFrac.at(fracs...), routed(opt))
			if err != nil {
				return nil, err
			}
			for l, frac := range fracs {
				machines, err := searchTrials(p, hosted(frac), opt)
				if err != nil {
					return nil, err
				}
				t.AddValues(frac, machines.FailedFraction(), sim.Sum(cells[l][0]).FailedFraction())
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
