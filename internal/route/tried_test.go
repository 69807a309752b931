package route

import (
	"fmt"
	"reflect"
	"sort"
	"sync"
	"testing"

	"repro/internal/graph"
	"repro/internal/metric"
	"repro/internal/rng"
)

// refFrame and refBacktrack are the backtracking walker as it was
// before the tried stack: every remembered node carries its own tried
// slice, the history drops its oldest frame by re-slicing, and the
// target set is canonicalized through sort.Slice. Kept as the reference
// the one-stack walker is compared against; candidate scoring is the
// walker's own bestNeighbor (unchanged by the stack), reached through a
// probe Walker that only ever holds the current node and the targets.
type refFrame struct {
	at    metric.Point
	tried []metric.Point
}

func refBacktrack(r *Router, from metric.Point, targets []metric.Point) Result {
	set := append([]metric.Point(nil), targets...)
	sort.Slice(set, func(i, j int) bool { return set[i] < set[j] })
	live := set[:0]
	for i, t := range set {
		if (i == 0 || t != set[i-1]) && r.g.Alive(t) {
			live = append(live, t)
		}
	}
	probe := Walker{r: r, targets: live, cur: from}
	res := Result{Target: -1}
	var history []refFrame
	push := func(p metric.Point) {
		history = append(history, refFrame{at: p})
		if len(history) > r.opt.BacktrackMemory {
			history = history[1:]
		}
	}
	r.trace(&res, from)
	push(from)
	if isTarget(from, live) {
		res.Delivered, res.Target = true, from
		return res
	}
	for res.Hops < r.opt.MaxHops {
		top := &history[len(history)-1]
		if next, ok := probe.bestNeighbor(top.tried); ok {
			top.tried = append(top.tried, next)
			probe.cur = next
			res.Hops++
			r.trace(&res, next)
			if isTarget(next, live) {
				res.Delivered, res.Target = true, next
				return res
			}
			push(next)
			continue
		}
		if len(history) <= 1 {
			return res
		}
		history = history[:len(history)-1]
		probe.cur = history[len(history)-1].at
		res.Hops++
		res.Backtracks++
		r.trace(&res, probe.cur)
	}
	return res
}

// TestTriedStackMatchesPerFrameSets routes seeded pairs with the
// one-stack walker and with the per-frame reference and requires equal
// Results, Path, Hops and Backtracks included: on a ring and a 2-D
// torus, healthy and with 30% and 60% of the nodes failed, for history
// depths around and beyond the paper's 5, to one target and to three.
// Each (space, failure) graph gets 10⁴ pairs (10³ under -short), split
// evenly over the eight (memory, targets) cells; every cell must hold a
// walk that outlives its history, so eviction runs, and every
// cell that can backtrack (memory > 1) on a 60% graph must actually do
// so, or the pop and truncate paths went unexercised.
func TestTriedStackMatchesPerFrameSets(t *testing.T) {
	pairs := 10000
	if testing.Short() {
		pairs = 1000
	}
	ring := mustRing(t, 1024)
	torus, err := metric.NewTorus(64, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, space := range []metric.Space{ring, torus} {
		for _, failed := range []float64{0, 0.3, 0.6} {
			g, err := graph.BuildIdeal(space, graph.PaperConfigFor(space, 3), rng.New(31))
			if err != nil {
				t.Fatal(err)
			}
			kill := rng.New(32)
			for p := 0; p < g.Size(); p++ {
				if kill.Bool(failed) {
					g.Fail(metric.Point(p))
				}
			}
			for _, memory := range []int{1, 2, 5, 8} {
				for _, replicas := range []int{1, 3} {
					name := fmt.Sprintf("%s/failed=%.0f%%/memory=%d/targets=%d", space.Name(), 100*failed, memory, replicas)
					r := New(g, Options{DeadEnd: Backtrack, BacktrackMemory: memory, TracePath: true})
					src := rng.New(uint64(33 + memory + 100*replicas))
					backtracks, long := 0, 0
					for i := 0; i < pairs/8; i++ {
						from, _ := g.RandomAlive(src)
						targets := make([]metric.Point, replicas)
						for k := range targets {
							// Dead and duplicate members are part of the
							// input space; an all-dead set is an error for
							// both walkers alike, so skip it.
							targets[k] = metric.Point(src.Intn(g.Size()))
						}
						got, err := r.RouteAny(src, from, targets)
						if err != nil {
							continue
						}
						want := refBacktrack(r, from, targets)
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("%s: %d→%v\n stack     %+v\n per-frame %+v", name, from, targets, got, want)
						}
						backtracks += got.Backtracks
						if got.Hops > memory {
							long++
						}
					}
					if long == 0 {
						t.Errorf("%s: no walk outlived the history, eviction never ran", name)
					}
					if failed == 0.6 && memory > 1 && backtracks == 0 {
						t.Errorf("%s: no search backtracked", name)
					}
				}
			}
		}
	}
}

// slabIsolationGraph is a ring built to make one search overflow both
// of its slab shares: node 0 has twenty long links toward the target,
// each ending at a node whose ring neighbours are dead, so the search
// from 0 makes twenty two-hop excursions — forty traced hops, and a
// twenty-entry tried set on node 0's frame — before it walks off along
// the ring.
func slabIsolationGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g := graph.New(mustRing(t, 256))
	for q := 40; q < 80; q += 2 {
		if err := g.AddLong(0, metric.Point(q)); err != nil {
			t.Fatal(err)
		}
		g.Fail(metric.Point(q + 1))
	}
	g.Fail(39)
	return g
}

// TestSlabIsolation takes three consecutive walkers from one arena
// chunk and drives the middle one far past its 16-entry path and tried
// shares. Its neighbours — one carved just before it, one just after —
// must keep their traces and all three must finish exactly as the
// per-frame reference, which shares no storage with anything, does. With two-index carving (capacity running on into the
// next walker's share) the middle walker's appends land in its
// neighbour's path and this fails; under -race the concurrent half
// reports the same writes as races, since walkers of one chunk are
// stepped by different shards.
func TestSlabIsolation(t *testing.T) {
	g := slabIsolationGraph(t)
	r := New(g, Options{DeadEnd: Backtrack, TracePath: true})
	searches := [3][2]metric.Point{{200, 230}, {0, 128}, {100, 110}}
	var want [3]Result
	for i, s := range searches {
		want[i] = refBacktrack(r, s[0], []metric.Point{s[1]})
	}
	if want[1].Hops <= pathShare || want[1].Backtracks <= triedShare {
		t.Fatalf("the middle search must outgrow its shares: %+v", want[1])
	}
	for _, concurrent := range []bool{false, true} {
		a := r.NewArena()
		var ws [3]*Walker
		for i, s := range searches {
			var err error
			if ws[i], err = a.Walker(nil, s[0], []metric.Point{s[1]}); err != nil {
				t.Fatal(err)
			}
		}
		// The neighbours are mid-walk when the middle one overflows.
		var before [3][]metric.Point
		for _, i := range []int{0, 2} {
			for k := 0; k < 3; k++ {
				ws[i].Step()
			}
			before[i] = append([]metric.Point(nil), ws[i].Visited()...)
		}
		finish := func(i int) {
			for ws[i].Step() {
			}
		}
		if concurrent {
			var wg sync.WaitGroup
			for i := range ws {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					finish(i)
				}(i)
			}
			wg.Wait()
		} else {
			finish(1)
			for _, i := range []int{0, 2} {
				if got := ws[i].Visited(); !reflect.DeepEqual(got, before[i]) {
					t.Errorf("walker %d's trace changed under its neighbour's walk: %v, was %v", i, got, before[i])
				}
				finish(i)
			}
		}
		for i := range ws {
			if got := ws[i].Result(); !reflect.DeepEqual(got, want[i]) {
				t.Errorf("concurrent=%v walker %d: %+v, want %+v", concurrent, i, got, want[i])
			}
		}
	}
}
