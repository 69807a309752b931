package experiments

import (
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/route"
	"repro/internal/sim"
)

// TestSweepMatchesPerCellTrials holds sweepTrials to the protocol it
// replaces: every (fraction, options) cell, trial by trial, is what a
// fresh build → crash → route run of searchTrials sees, on the ring and
// on a 2-D torus at one and three workers, from one build per trial.
func TestSweepMatchesPerCellTrials(t *testing.T) {
	fracs := []float64{0, 0.3, 0.6}
	opts := []route.Options{
		{DeadEnd: route.Terminate},
		{DeadEnd: route.RandomReroute},
		{DeadEnd: route.Backtrack, BacktrackMemory: 2},
	}
	for _, space := range []Params{{N: 256}, {Dim: 2, Side: 12}} {
		for _, workers := range []int{1, 3} {
			p := space
			p.Trials, p.Msgs, p.Seed, p.Workers = 4, 30, 5, workers
			p = p.withDefaults(0, 0, 0)
			var builds atomic.Int64
			build := func(trial int, src *rng.Source) (*graph.Graph, error) {
				builds.Add(1)
				return ideal(p.space, p.lgLinks())(trial, src)
			}
			cells, err := sweepTrials(p, p.Seed, build, fracs, opts)
			if err != nil {
				t.Fatal(err)
			}
			if got := builds.Load(); got != int64(p.Trials) {
				t.Errorf("%s workers=%d: %d builds, want one per trial (%d)", p.spaceDesc(), workers, got, p.Trials)
			}
			for l, frac := range fracs {
				for o, opt := range opts {
					per, err := sim.RunDetailed(p.Seed, p.Trials, p.Workers,
						trial(p, ideal(p.space, p.lgLinks()), failNodes(frac), routed(opt)))
					if err != nil {
						t.Fatal(err)
					}
					for i, want := range per {
						if cells[l][o][i] != want {
							t.Errorf("%s workers=%d p=%v %v trial %d: sweep %+v, per-cell %+v",
								p.spaceDesc(), workers, frac, opt.DeadEnd, i, cells[l][o][i], want)
						}
					}
					total, err := searchTrials(p, ideal(p.space, p.lgLinks()), failNodes(frac), opt)
					if err != nil {
						t.Fatal(err)
					}
					if got := sim.Sum(cells[l][o]); got != total {
						t.Errorf("%s workers=%d p=%v %v: sweep %+v, searchTrials %+v",
							p.spaceDesc(), workers, frac, opt.DeadEnd, got, total)
					}
				}
			}
		}
	}

	// A build that leaves a node crashed must fail the sweep: reviving
	// after the first level would otherwise heal it silently.
	p := Params{N: 128, Trials: 2, Msgs: 10, Seed: 3, Workers: 2}.withDefaults(0, 0, 0)
	build := func(trial int, src *rng.Source) (*graph.Graph, error) {
		g, err := ideal(p.space, p.lgLinks())(trial, src)
		if err == nil {
			g.Fail(7)
		}
		return g, err
	}
	_, err := sweepTrials(p, p.Seed, build, []float64{0, 0.5}, []route.Options{{}})
	if err == nil || !strings.Contains(err.Error(), "revived") {
		t.Errorf("err = %v, want the revive check to reject the build", err)
	}
}
