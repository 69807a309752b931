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
		Artifact: "§3 comparison: this paper vs Chord, Plaxton, Kleinberg, CAN, flooding, central index, healthy and under node failures",
		Description: "mean hops and messages per lookup on equal-sized networks, Kleinberg (exponent 2, one long " +
			"link) and CAN (no long links) on this paper's graph and router; then this paper (backtrack and " +
			"terminate), Chord and Kleinberg at l = lg n with a fraction p of the nodes crashed and no repair " +
			"running (the paper argues structured systems make no guarantees between failures and repair)",
		Run: baselines,
	})
}

func baselines(p Params) (*sim.Table, error) {
	p = p.withDefaults(1<<14, 1, 300)
	links := p.lgLinks()
	src := rng.New(p.Seed)
	t := sim.NewTable(fmt.Sprintf("Baselines (n=%d, %d lookups)", p.N, p.Msgs),
		"system", "mean hops", "mean msgs", "delivered frac")

	// This paper's overlay, and the two §3 systems that are its model
	// at other parameters: Kleinberg's small world is the 2-D torus at
	// exponent 2 with one long link per node, CAN the bare grid. Both
	// route greedily over a node's own links. All are sized to p.N
	// nodes (side = √n for grids); each row builds from one derived
	// stream and draws its lookups from another.
	side, m := int(math.Sqrt(float64(p.N))), mathx.ILog2(p.N)
	torus, directed := torusOf(side), route.Options{DirectedOnly: true}
	for _, sys := range []struct {
		name           string
		build          buildFunc
		opt            route.Options
		built, lookups uint64
	}{
		{"aspnes-shah (this paper)", ideal(ringOf(p.N), links), route.Options{}, 1, 2},
		{"kleinberg", ideal(torus, 1), directed, 3, 5},
		{"can", ideal(torus, 0), directed, 3, 5},
	} {
		g, err := sys.build(0, src.Derive(sys.built))
		if err != nil {
			return nil, err
		}
		stats, err := sim.MeasureSearches(g, route.New(g, sys.opt), src.Derive(sys.lookups), p.Msgs)
		if err != nil {
			return nil, err
		}
		t.AddValues(sys.name, stats.MeanHops(), stats.MeanHops(), 1-stats.FailedFraction())
	}
	for _, mk := range []func() (baseline.Router, error){
		func() (baseline.Router, error) { return baseline.NewChord(m) },
		func() (baseline.Router, error) { return baseline.NewPlaxton(2, m) },
		func() (baseline.Router, error) { return baseline.NewFlood(p.N, 6, 8, src.Derive(4)) },
		func() (baseline.Router, error) { return baseline.NewCentral(p.N) },
	} {
		sys, err := mk()
		if err != nil {
			return nil, err
		}
		hops, sent, delivered := healthyRow(sys, src.Derive(5), p.Msgs)
		t.AddValues(sys.Name(), hops, sent, delivered)
	}

	// §3's missing comparison: the same lookups with a fraction prob of
	// the nodes crashed, this paper under both headline dead-end
	// policies and Kleinberg at l = lg n on every trial's network,
	// against Chord (a fresh instance per trial). Every hop is one
	// message.
	probs := []float64{0.1, 0.3, 0.5, 0.7}
	policies := []route.Options{{DeadEnd: route.Backtrack}, {DeadEnd: route.Terminate}}
	cells, err := sweepTrials(p, p.Seed, ideal(ringOf(p.N), links), crashFrac.at(probs...), routed(policies...))
	if err != nil {
		return nil, err
	}
	kleinberg, err := sweepTrials(p, p.Seed, ideal(torus, links), crashFrac.at(probs...), routed(directed))
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
		stats, err := sim.Run(p.Seed, p.Trials, p.Workers, func(_ int, src *rng.Source) (sim.SearchStats, error) {
			c, err := baseline.NewChord(m)
			if err != nil {
				return sim.SearchStats{}, err
			}
			if _, err := c.FailNodes(prob, src); err != nil {
				return sim.SearchStats{}, err
			}
			var s sim.SearchStats
			for i := 0; i < p.Msgs; i++ {
				if from, to, ok := randomAlivePair(c, src); ok {
					res := c.Route(src, from, to)
					s.Record(route.Result{Delivered: res.Delivered, Hops: res.Hops})
				}
			}
			return s, nil
		})
		if err != nil {
			return nil, err
		}
		addFailed("chord", stats)
		addFailed(fmt.Sprintf("kleinberg l=%d", links), sim.Sum(kleinberg[l][0]))
	}
	return t, nil
}

// healthyRow routes msgs lookups between distinct random nodes of sys
// and returns its row's mean hops, mean messages (both over delivered
// lookups) and delivered fraction. A lookup's endpoints are redrawn
// together until they differ, as randomAlivePair's are.
func healthyRow(sys baseline.Router, src *rng.Source, msgs int) (meanHops, meanMsgs, deliveredFrac float64) {
	var hops, sent, delivered int
	for i := 0; i < msgs; i++ {
		from, to := src.Intn(sys.Nodes()), src.Intn(sys.Nodes())
		for from == to {
			from, to = src.Intn(sys.Nodes()), src.Intn(sys.Nodes())
		}
		if res := sys.Route(src, from, to); res.Delivered {
			delivered++
			hops += res.Hops
			sent += res.Messages
		}
	}
	if delivered > 0 {
		meanHops = float64(hops) / float64(delivered)
		meanMsgs = float64(sent) / float64(delivered)
	}
	return meanHops, meanMsgs, float64(delivered) / float64(msgs)
}

// randomAlivePair draws distinct live endpoints, or ok=false after too
// many rejections (nearly extinct network).
func randomAlivePair(c *baseline.Chord, src *rng.Source) (from, to int, ok bool) {
	for i := 0; i < 256; i++ {
		a, b := src.Intn(c.Nodes()), src.Intn(c.Nodes())
		if a != b && c.Alive(a) && c.Alive(b) {
			return a, b, true
		}
	}
	return 0, 0, false
}
