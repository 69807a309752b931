package route

import (
	"fmt"
	"reflect"
	"slices"
	"sort"
	"sync"
	"testing"

	"repro/internal/graph"
	"repro/internal/metric"
	"repro/internal/rng"
)

// refFrame and refBacktrack are the backtracking walker as it was
// before the tried stack: every remembered node carries its own tried
// slice, the history drops its oldest frame by re-slicing, and delivery
// is membership of the live target set, canonicalized through
// sort.Slice. Kept as the reference the one-stack walker is compared
// against; candidate scoring is the walker's own bestNeighbor
// (unchanged by the stack), reached through a probe Walker started as
// every walker is — start validates the search and decodes its target
// set — which then only ever moves its current node.
type refFrame struct {
	at    metric.Point
	tried []int32
}

func refBacktrack(t *testing.T, r *Router, from metric.Point, targets []metric.Point) Result {
	t.Helper()
	set := append([]metric.Point(nil), targets...)
	sort.Slice(set, func(i, j int) bool { return set[i] < set[j] })
	live := set[:0]
	for i, t := range set {
		if (i == 0 || t != set[i-1]) && r.g.Alive(t) {
			live = append(live, t)
		}
	}
	probe := Walker{r: r}
	if err := probe.start(nil, from, targets); err != nil {
		t.Fatal(err)
	}
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
	if slices.Contains(live, from) {
		res.Delivered, res.Target = true, from
		return res
	}
	for res.Hops < r.opt.MaxHops {
		top := &history[len(history)-1]
		if next, _, ok := probe.bestNeighbor(top.tried); ok {
			top.tried = append(top.tried, int32(next))
			probe.cur = next
			res.Hops++
			r.trace(&res, next)
			if slices.Contains(live, next) {
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
						want := refBacktrack(t, r, from, targets)
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

// pastSmallChunks carves and holds an arena's first eight walkers — its
// chunks of 1, 1, 2 and 4 — so that its next eight share one chunk.
func pastSmallChunks(t *testing.T, a *Arena, from, to metric.Point) {
	t.Helper()
	for a.Carved() < 8 || len(a.walkers) > 0 {
		if _, err := a.Walker(nil, from, []metric.Point{to}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSlabIsolation takes three consecutive walkers from one arena
// chunk and drives the middle one far past its 16-entry path and tried
// shares. Its neighbours — one carved just before it, one just after —
// must keep their traces and all three must finish exactly as the
// per-frame reference, which shares no storage with anything, does. With two-index carving (capacity running on into the
// next walker's share) the middle walker's appends land in its
// neighbour's path and this fails; under -race the concurrent half
// reports the same writes as races, since walkers of one chunk are
// stepped by different shards. Multi-member target sets, carved from
// the arena's set slab, get the same check against RouteAny.
func TestSlabIsolation(t *testing.T) {
	g := slabIsolationGraph(t)
	r := New(g, Options{DeadEnd: Backtrack, TracePath: true})
	searches := [3][2]metric.Point{{200, 230}, {0, 128}, {100, 110}}
	var want [3]Result
	for i, s := range searches {
		want[i] = refBacktrack(t, r, s[0], []metric.Point{s[1]})
	}
	if want[1].Hops <= pathShare || want[1].Backtracks <= triedShare {
		t.Fatalf("the middle search must outgrow its shares: %+v", want[1])
	}
	for _, concurrent := range []bool{false, true} {
		a := r.NewArena()
		pastSmallChunks(t, a, searches[0][0], searches[0][1])
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
			before[i] = append([]metric.Point(nil), ws[i].Result().Path...)
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
				if got := ws[i].Result().Path; !reflect.DeepEqual(got, before[i]) {
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

	// Replica sets: three walkers carve their decoded target sets —
	// 3, 12 and 3 members, dead and duplicated ones among them — from the
	// arena's one set slab, back to back, and step on three goroutines.
	// Each must keep its own set, capped at its share, and end exactly as
	// RouteAny, which carves from a chunk of its own.
	sets := [3][]metric.Point{
		{230, 10, 230},
		{128, 41, 130, 132, 128, 140, 150, 160, 170, 180, 190, 129},
		{110, 43, 112},
	}
	from := [3]metric.Point{200, 0, 100}
	a := r.NewArena()
	pastSmallChunks(t, a, searches[0][0], searches[0][1])
	var ws [3]*Walker
	var canon [3][]int32
	var routed [3]Result
	for i, set := range sets {
		var err error
		if ws[i], err = a.Walker(nil, from[i], set); err != nil {
			t.Fatal(err)
		}
		if cap(ws[i].set) != len(set) { // one coordinate per member on the ring
			t.Errorf("set %d carved with capacity %d, want its share %d", i, cap(ws[i].set), len(set))
		}
		if canon[i], err = r.liveTargets(nil, set); err != nil {
			t.Fatal(err)
		}
		if routed[i], err = r.RouteAny(nil, from[i], set); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for _, w := range ws {
		wg.Add(1)
		go func(w *Walker) {
			defer wg.Done()
			for w.Step() {
			}
		}(w)
	}
	wg.Wait()
	for i, w := range ws {
		if !reflect.DeepEqual(w.set, canon[i]) {
			t.Errorf("set %d: walker holds %v, want %v", i, w.set, canon[i])
		}
		if got := w.Result(); !reflect.DeepEqual(got, routed[i]) {
			t.Errorf("set %d: %+v, want RouteAny's %+v", i, got, routed[i])
		}
	}
}
