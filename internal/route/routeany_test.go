package route

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/alloctest"
	"repro/internal/graph"
	"repro/internal/metric"
	"repro/internal/rng"
)

// crashed returns g with each node failed with probability frac.
func crashed(g *graph.Graph, frac float64, seed uint64) *graph.Graph {
	kill := rng.New(seed)
	for p := 0; p < g.Size(); p++ {
		if kill.Bool(frac) {
			g.Fail(metric.Point(p))
		}
	}
	return g
}

// TestSearcherMatchesArenaWalkers runs one arena's RouteAny through a
// sequence of searches under every dead-end policy, traced and
// untraced, toward single targets and 3- and 12-member sets with dead
// and duplicate members, and holds every result to a walker carved from
// a fresh arena on a source of the same seed. The sequence starts with the
// search that overflows its path and tried shares and mixes in searches
// that fail to start (a dead origin, an all-dead set), so later searches
// run on a recycled walker's grown buffers and sets, and on a walker an
// error left behind.
func TestSearcherMatchesArenaWalkers(t *testing.T) {
	overflow := slabIsolationGraph(t)
	torus, err := metric.NewTorus(32, 2)
	if err != nil {
		t.Fatal(err)
	}
	tg, err := graph.BuildIdeal(torus, graph.PaperConfigFor(torus, 3), rng.New(41))
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range []*graph.Graph{overflow, crashed(buildRing(t, 1<<10, 4, 40), 0.3, 42), crashed(tg, 0.3, 43)} {
		for _, policy := range []DeadEndPolicy{Terminate, RandomReroute, Backtrack} {
			for _, traced := range []bool{false, true} {
				name := fmt.Sprintf("%s/%s/traced=%v", g.Space().Name(), policy, traced)
				r := New(g, Options{DeadEnd: policy, TracePath: traced})
				a := r.NewArena()
				pick := rng.New(44)
				got, want := rng.New(45), rng.New(45)
				for i := 0; i < 300; i++ {
					from := metric.Point(pick.Intn(g.Size()))
					targets := make([]metric.Point, []int{1, 3, 12}[i%3])
					for k := range targets {
						targets[k] = metric.Point(pick.Intn(g.Size()))
					}
					if i == 0 && g == overflow {
						from, targets = 0, []metric.Point{128}
					}
					w, werr := r.NewArena().Walker(want, from, targets)
					res, err := a.RouteAny(got, from, targets)
					if (err != nil) != (werr != nil) {
						t.Fatalf("%s: search %d %d→%v: error %v, arena walker's %v", name, i, from, targets, err, werr)
					}
					if werr != nil {
						continue
					}
					for w.Step() {
					}
					if !reflect.DeepEqual(res, w.Result()) {
						t.Fatalf("%s: search %d %d→%v:\n recycled %+v\n fresh    %+v", name, i, from, targets, res, w.Result())
					}
				}
			}
		}
	}
}

// TestRouteAnyAllocs pins the recycled walker's contract on a Figure 6
// network, a ring of 2¹¹ nodes with ℓ = 11 and 30 % of them crashed: an
// untraced backtracking search through Arena.RouteAny allocates nothing
// once the first search has run, and a traced one, once its path buffer
// has grown to the longest walk, nothing but the kept-path slab's
// chunks, in which each result keeps its path past the next search.
func TestRouteAnyAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	g := crashed(buildRing(t, 1<<11, 11, 46), 0.3, 47)
	pairs := make([][2]metric.Point, 1000)
	pick := rng.New(48)
	for i := range pairs {
		pairs[i][0], _ = g.RandomAlive(pick)
		pairs[i][1], _ = g.RandomAlive(pick)
	}
	for _, traced := range []bool{false, true} {
		r := New(g, Options{DeadEnd: Backtrack, TracePath: traced})
		a := r.NewArena()
		points, longest := 0, 0
		search := func(p [2]metric.Point) Result {
			res, err := a.RouteAny(nil, p[0], []metric.Point{p[1]})
			if err != nil {
				t.Fatal(err)
			}
			points += len(res.Path)
			longest = max(longest, len(res.Path))
			return res
		}
		warm := pairs[:1]
		if traced {
			// The path buffer grows once per doubling of the longest walk
			// so far.
			warm = pairs
		}
		for _, p := range warm {
			search(p)
		}
		backtracks := 0
		points = 0
		n, _ := alloctest.Measure(func() {
			for _, p := range pairs {
				backtracks += search(p).Backtracks
			}
		})
		if backtracks == 0 {
			t.Fatalf("traced=%v: no search backtracked, the pin is vacuous", traced)
		}
		// A kept-path chunk is replaced only when it has less room left
		// than the path to keep, so each but the last holds more than
		// keptChunk-longest points.
		want := uint64(0)
		if traced {
			want = uint64(points/(keptChunk-longest) + 1)
		}
		if n > want {
			t.Errorf("traced=%v: %d searches after the first allocated %d times, want at most %d (kept-path chunks for %d points)",
				traced, len(pairs), n, want, points)
		}
	}
}
