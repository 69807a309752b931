package experiments

import (
	"fmt"
	"math"

	"repro/internal/baseline"
	"repro/internal/mathx"
	"repro/internal/rng"
	"repro/internal/route"
	"repro/internal/sim"
)

func init() {
	register(Experiment{
		ID:       "baselines",
		Artifact: "§3 comparison: this paper vs Chord, Kleinberg, CAN, flooding, central index, healthy and under node failures",
		Description: "mean hops and messages per lookup on equal-sized networks; then this paper " +
			"(backtrack and terminate), Chord and Kleinberg at l = lg n with a fraction p of " +
			"the nodes crashed and no repair running (the paper argues structured systems " +
			"make no guarantees between failures and repair)",
		Run: baselines,
	})
}

func baselines(p Params) (*sim.Table, error) {
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
	stats, err := sim.MeasureSearches(g, route.New(g, route.Options{}), src.Derive(2), p.Msgs)
	if err != nil {
		return nil, err
	}
	t.AddValues("aspnes-shah (this paper)", stats.MeanHops(), stats.MeanHops(),
		1-stats.FailedFraction())

	// Baselines. All sized to p.N nodes (side = sqrt for grids).
	side, m := int(math.Sqrt(float64(p.N))), mathx.ILog2(p.N)
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

	// §3's missing comparison: the same lookups with a fraction prob of
	// the nodes crashed on every trial's network, this paper under both
	// headline dead-end policies against Chord and Kleinberg (a fresh
	// instance per trial). Every hop is one message.
	probs := []float64{0.1, 0.3, 0.5, 0.7}
	policies := []route.Options{{DeadEnd: route.Backtrack}, {DeadEnd: route.Terminate}}
	cells, err := sweepTrials(p, p.Seed, ideal(ringOf(p.N), links), crashFrac.at(probs...), routed(policies...))
	if err != nil {
		return nil, err
	}
	for l, prob := range probs {
		addFailed := func(name string, stats sim.SearchStats) {
			t.AddValues(name+" p="+sim.F(prob), stats.MeanHops(), stats.MeanHops(), 1-stats.FailedFraction())
		}
		for o, pol := range policies {
			addFailed("aspnes-shah "+pol.DeadEnd.String(), sim.Sum(cells[l][o]))
		}
		for _, sys := range []struct {
			name string
			mk   func(*rng.Source) (baseline.Router, baseline.FailureInjector, error)
		}{
			{"chord", func(*rng.Source) (baseline.Router, baseline.FailureInjector, error) {
				c, err := baseline.NewChord(m)
				return c, c, err
			}},
			{fmt.Sprintf("kleinberg l=%d", links), func(src *rng.Source) (baseline.Router, baseline.FailureInjector, error) {
				k, err := baseline.NewKleinberg(side, links, src)
				return k, k, err
			}},
		} {
			stats, err := sim.Run(p.Seed, p.Trials, p.Workers, func(_ int, src *rng.Source) (sim.SearchStats, error) {
				r, inj, err := sys.mk(src)
				if err != nil {
					return sim.SearchStats{}, err
				}
				if _, err := inj.FailNodes(prob, src); err != nil {
					return sim.SearchStats{}, err
				}
				var s sim.SearchStats
				for i := 0; i < p.Msgs; i++ {
					if from, to, ok := randomAlivePair(r.Nodes(), inj, src); ok {
						res := r.Route(src, from, to)
						s.Record(route.Result{Delivered: res.Delivered, Hops: res.Hops})
					}
				}
				return s, nil
			})
			if err != nil {
				return nil, err
			}
			addFailed(sys.name, stats)
		}
	}
	return t, nil
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
