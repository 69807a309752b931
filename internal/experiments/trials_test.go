package experiments

import (
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/graph"
	"repro/internal/metric"
	"repro/internal/rng"
	"repro/internal/route"
	"repro/internal/sim"
)

// perCell is the protocol sweepTrials replaces, kept as its reference:
// trial i builds a network of its own, applies d from the post-build
// stream and searches from the post-damage stream.
func perCell(p Params, build buildFunc, d damage, search searchFunc) sim.TrialFunc {
	return func(i int, src *rng.Source) (sim.SearchStats, error) {
		g, err := build(i, src)
		if err != nil {
			return sim.SearchStats{}, err
		}
		if _, err := d.apply(g, d.p, src); err != nil {
			return sim.SearchStats{}, err
		}
		return search(g, src, p.Msgs)
	}
}

// skipUndo is d with its undo skipped: the damage stays in place but
// is reported restored, so the runner's count check passes and only
// the cells can show it. Its one counter makes it sound at one worker
// only.
func skipUndo(d damage, down *int) damage {
	apply := d.apply
	d.apply = func(g *graph.Graph, p float64, src *rng.Source) (int, error) {
		n, err := apply(g, p, src)
		*down = n
		return n, err
	}
	d.undo = func(*graph.Graph) int { return *down }
	return d
}

// layout is a search that routes nothing: it folds every point's
// liveness, malice and neighbour sequence, in order, into the stats,
// so a cell shows any difference in the graph its level sees, in-link
// tie order included.
func layout(g *graph.Graph, _ *rng.Source, _ int) (sim.SearchStats, error) {
	var s sim.SearchStats
	var buf []metric.Point
	for p := metric.Point(0); int(p) < g.Size(); p++ {
		buf = g.AppendNeighbors(buf[:0], p, true)
		for k, q := range buf {
			s.HopsOK = s.HopsOK*31 + (k+1)*int(q)
		}
		if g.Alive(p) {
			s.Delivered++
		}
		if g.Malicious(p) {
			s.Reroutes++
		}
	}
	return s, nil
}

// sweepKinds is one level list per damage kind, with its searches and a
// way for a build to leave that kind of damage behind. Each level draws
// from the same stream, so link and malicious damage grow as nested
// sets in their probability; their levels go down and up again, or a
// left-in level would hide inside the next one.
func sweepKinds() []struct {
	name     string
	levels   []damage
	searches []searchFunc
	leave    func(g *graph.Graph) error
} {
	opts := append(routed(
		route.Options{DeadEnd: route.Terminate},
		route.Options{DeadEnd: route.RandomReroute},
		route.Options{DeadEnd: route.Backtrack, BacktrackMemory: 2},
	), layout)
	crash := func(g *graph.Graph) error { g.Fail(7); return nil }
	return []struct {
		name     string
		levels   []damage
		searches []searchFunc
		leave    func(g *graph.Graph) error
	}{
		{"crash fraction", append([]damage{intact}, crashFrac.at(0.3, 0.6)...), opts, crash},
		{"crash probability", crashProb.at(0, 0.3, 0.6), opts, crash},
		{"links up", linksUp.at(1, 0.3, 0.6), opts,
			func(g *graph.Graph) error { return g.SetLongUp(7, 0, false) }},
		{"malicious", maliciousProb.at(0, 0.3, 0.1), append(opts[:1:1], layout, redundant(1), redundant(3)),
			func(g *graph.Graph) error { return g.SetMalicious(7, true) }},
	}
}

// TestSweepMatchesPerCellTrials holds sweepTrials to the protocol it
// replaces: for every damage kind, every (level, search) cell, trial by
// trial and in the sum, is what a fresh build → damage → search run
// sees, on the ring and on a 2-D torus at one and three workers, from
// one build per trial. Leaving any kind's damage in place instead of
// undoing it must show in the cells, and a build that leaves a node
// crashed, a link down or a node malicious must fail the sweep.
func TestSweepMatchesPerCellTrials(t *testing.T) {
	for _, space := range []Params{{N: 256}, {Dim: 2, Side: 12}} {
		for _, workers := range []int{1, 3} {
			p := space
			p.Trials, p.Msgs, p.Seed, p.Workers = 4, 30, 5, workers
			p = p.withDefaults(0, 0, 0)
			build := ideal(p.space, p.lgLinks())
			for _, k := range sweepKinds() {
				var builds atomic.Int64
				counted := func(trial int, src *rng.Source) (*graph.Graph, error) {
					builds.Add(1)
					return build(trial, src)
				}
				cells, err := sweepTrials(p, p.Seed, counted, k.levels, k.searches)
				if err != nil {
					t.Fatal(err)
				}
				if got := builds.Load(); got != int64(p.Trials) {
					t.Errorf("%s workers=%d %s: %d builds, want one per trial (%d)", p.spaceDesc(), workers, k.name, got, p.Trials)
				}
				var skipped [][][]sim.SearchStats
				if workers == 1 {
					var down int
					leftIn := make([]damage, len(k.levels))
					for l, d := range k.levels {
						leftIn[l] = skipUndo(d, &down)
					}
					if skipped, err = sweepTrials(p, p.Seed, build, leftIn, k.searches); err != nil {
						t.Fatal(err)
					}
				}
				skipSeen := false
				for l, d := range k.levels {
					for s, search := range k.searches {
						per, err := sim.RunDetailed(p.Seed, p.Trials, p.Workers, perCell(p, build, d, search))
						if err != nil {
							t.Fatal(err)
						}
						for i, want := range per {
							if cells[l][s][i] != want {
								t.Errorf("%s workers=%d %s level %d search %d trial %d: sweep %+v, per-cell %+v",
									p.spaceDesc(), workers, k.name, l, s, i, cells[l][s][i], want)
							}
							if skipped != nil && skipped[l][s][i] != want {
								skipSeen = true
							}
						}
						total, err := sim.Run(p.Seed, p.Trials, p.Workers, perCell(p, build, d, search))
						if err != nil {
							t.Fatal(err)
						}
						if got := sim.Sum(cells[l][s]); got != total {
							t.Errorf("%s workers=%d %s level %d search %d: sweep %+v, per-cell %+v",
								p.spaceDesc(), workers, k.name, l, s, got, total)
						}
					}
				}
				if skipped != nil && !skipSeen {
					t.Errorf("%s %s: a sweep that never undoes its damage matched the per-cell runs", p.spaceDesc(), k.name)
				}
			}
		}
	}

	// A build that leaves damage of the swept kind behind must fail the
	// sweep: the undo after the first level would otherwise heal it
	// silently.
	p := Params{N: 128, Trials: 2, Msgs: 10, Seed: 3, Workers: 2}.withDefaults(0, 0, 0)
	for _, k := range sweepKinds() {
		build := func(trial int, src *rng.Source) (*graph.Graph, error) {
			g, err := ideal(p.space, p.lgLinks())(trial, src)
			if err == nil {
				err = k.leave(g)
			}
			return g, err
		}
		_, err := sweepTrials(p, p.Seed, build, k.levels, k.searches)
		if err == nil || !strings.Contains(err.Error(), "the build left some down") {
			t.Errorf("%s: err = %v, want the undo count to reject the build", k.name, err)
		}
	}
}

// TestSweepWithoutLevelsOnlyBuilds: a sweep with no levels builds each
// trial once and routes nothing, as derivedDistribution uses it.
func TestSweepWithoutLevelsOnlyBuilds(t *testing.T) {
	p := Params{N: 64, Trials: 3, Seed: 1}.withDefaults(0, 0, 0)
	var builds atomic.Int64
	cells, err := sweepTrials(p, p.Seed, func(trial int, src *rng.Source) (*graph.Graph, error) {
		builds.Add(1)
		sp, err := metric.NewRing(p.N)
		if err != nil {
			return nil, err
		}
		return graph.New(sp), nil
	}, nil, nil)
	if err != nil || len(cells) != 0 || builds.Load() != 3 {
		t.Errorf("cells %v, %d builds, err %v; want none, 3, nil", cells, builds.Load(), err)
	}
}
