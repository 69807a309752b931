package experiments

import (
	"fmt"
	"math"

	"repro/internal/baseline"
	"repro/internal/rng"
	"repro/internal/route"
	"repro/internal/sim"
)

func init() {
	register(Experiment{
		ID:          "baselines",
		Artifact:    "§3 comparison: this paper vs Chord, Kleinberg, CAN, flooding, central index",
		Description: "mean hops and messages per lookup on equal-sized networks",
		Run: func(p Params) (*sim.Table, error) {
			p = p.withDefaults(1<<14, 1, 300)
			links := p.lgLinks()
			src := rng.New(p.Seed)
			t := sim.NewTable(fmt.Sprintf("Baselines (n=%d, %d lookups)", p.N, p.Msgs),
				"system", "mean hops", "mean msgs", "delivered frac")

			// This paper's overlay.
			g, err := ideal(ringOf(p.N), links)(0, src.Derive(1))
			if err != nil {
				return nil, err
			}
			stats, err := routed(route.Options{})(g, src.Derive(2), p.Msgs)
			if err != nil {
				return nil, err
			}
			t.AddValues("aspnes-shah (this paper)", stats.MeanHops(), stats.MeanHops(),
				1-stats.FailedFraction())

			// Baselines. All sized to p.N nodes (side = sqrt for grids).
			side, m := int(math.Sqrt(float64(p.N))), lg(p.N)
			for _, mk := range []func() (baseline.Router, error){
				func() (baseline.Router, error) { return baseline.NewChord(m) },
				func() (baseline.Router, error) { return baseline.NewPlaxton(2, m) },
				func() (baseline.Router, error) { return baseline.NewKleinberg(side, 1, src.Derive(3)) },
				func() (baseline.Router, error) { return baseline.NewCAN(side) },
				func() (baseline.Router, error) { return baseline.NewFlood(p.N, 6, 8, src.Derive(4)) },
				func() (baseline.Router, error) { return baseline.NewCentral(p.N) },
			} {
				sys, err := mk()
				if err != nil {
					return nil, err
				}
				var hops, msgs, delivered, counted int
				bsrc := src.Derive(5)
				for i := 0; i < p.Msgs; i++ {
					from := bsrc.Intn(sys.Nodes())
					to := bsrc.Intn(sys.Nodes())
					res := sys.Route(bsrc, from, to)
					counted++
					if res.Delivered {
						delivered++
						hops += res.Hops
						msgs += res.Messages
					}
				}
				meanHops, meanMsgs := 0.0, 0.0
				if delivered > 0 {
					meanHops = float64(hops) / float64(delivered)
					meanMsgs = float64(msgs) / float64(delivered)
				}
				t.AddValues(sys.Name(), meanHops, meanMsgs, float64(delivered)/float64(counted))
			}
			return t, nil
		},
	})

	register(Experiment{
		ID:       "ext.faultcompare",
		Artifact: "§3's missing comparison: fault tolerance of this paper vs Chord vs Kleinberg",
		Description: "failed-search fraction under mass node failure, no repair running " +
			"(the paper argues structured systems make no guarantees between failures and repair)",
		Run: func(p Params) (*sim.Table, error) {
			p = p.withDefaults(1<<13, 3, 100)
			links, m := p.lgLinks(), lg(p.N)
			side := int(math.Sqrt(float64(p.N)))
			t := sim.NewTable(
				fmt.Sprintf("Fault-tolerance comparison (n=%d, failed-search fraction)", p.N),
				"p(node fail)", "this paper (backtrack)", "this paper (terminate)", "chord", "kleinberg")
			for _, prob := range []float64{0, 0.1, 0.3, 0.5, 0.7} {
				prob := prob
				// This paper, both headline policies.
				ours := make([]float64, 2)
				for i, pol := range []route.DeadEndPolicy{route.Backtrack, route.Terminate} {
					stats, err := searchTrials(p, ideal(ringOf(p.N), links), failNodes(prob),
						route.Options{DeadEnd: pol})
					if err != nil {
						return nil, err
					}
					ours[i] = stats.FailedFraction()
				}

				// Baselines with injected failures (fresh instance per
				// trial for independence).
				measure := func(mk func(src *rng.Source) (baseline.Router, baseline.FailureInjector, error)) (float64, error) {
					stats, err := sim.Run(p.Seed, p.Trials, p.Workers, func(trial int, src *rng.Source) (sim.SearchStats, error) {
						sys, inj, err := mk(src)
						if err != nil {
							return sim.SearchStats{}, err
						}
						if _, err := inj.FailNodes(prob, src); err != nil {
							return sim.SearchStats{}, err
						}
						var s sim.SearchStats
						for i := 0; i < p.Msgs; i++ {
							from, to, ok := randomAlivePair(sys.Nodes(), inj, src)
							if !ok {
								continue
							}
							res := sys.Route(src, from, to)
							s.Record(route.Result{Delivered: res.Delivered, Hops: res.Hops})
						}
						return s, nil
					})
					if err != nil {
						return 0, err
					}
					return stats.FailedFraction(), nil
				}
				chordFrac, err := measure(func(*rng.Source) (baseline.Router, baseline.FailureInjector, error) {
					c, err := baseline.NewChord(m)
					return c, c, err
				})
				if err != nil {
					return nil, err
				}
				kleinFrac, err := measure(func(src *rng.Source) (baseline.Router, baseline.FailureInjector, error) {
					k, err := baseline.NewKleinberg(side, links, src)
					return k, k, err
				})
				if err != nil {
					return nil, err
				}
				t.AddValues(prob, ours[0], ours[1], chordFrac, kleinFrac)
			}
			return t, nil
		},
	})
}

// randomAlivePair draws distinct live endpoints, or ok=false after too
// many rejections (nearly extinct network).
func randomAlivePair(n int, inj baseline.FailureInjector, src *rng.Source) (from, to int, ok bool) {
	for i := 0; i < 256; i++ {
		a, b := src.Intn(n), src.Intn(n)
		if a != b && inj.Alive(a) && inj.Alive(b) {
			return a, b, true
		}
	}
	return 0, 0, false
}
