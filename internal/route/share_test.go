package route

import (
	"reflect"
	"strconv"
	"sync"
	"testing"
	"unsafe"

	"repro/internal/graph"
	"repro/internal/metric"
	"repro/internal/rng"
)

// shareSpaces are the spaces a distance table is built over, one per
// case of Kernel.Nearest: a line (one axis, no wrap), a ring (one axis
// with wrap), the two-axis torus (its branchless loop) and a 3-D torus
// (the general loop).
func shareSpaces(t *testing.T) []metric.Space {
	t.Helper()
	line, err := metric.NewLine(300)
	if err != nil {
		t.Fatal(err)
	}
	ring, err := metric.NewRing(256)
	if err != nil {
		t.Fatal(err)
	}
	torus2, err := metric.NewTorus(16, 2)
	if err != nil {
		t.Fatal(err)
	}
	torus3, err := metric.NewTorus(8, 3)
	if err != nil {
		t.Fatal(err)
	}
	return []metric.Space{line, ring, torus2, torus3}
}

// shareGraph builds a seeded network over space with each node failed
// with probability failFrac.
func shareGraph(t *testing.T, space metric.Space, failFrac float64, seed uint64) *graph.Graph {
	t.Helper()
	g, err := graph.BuildIdeal(space, graph.PaperConfigFor(space, 4), rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(seed + 1)
	for p := 0; p < g.Size(); p++ {
		if src.Bool(failFrac) {
			g.Fail(metric.Point(p))
		}
	}
	return g
}

// distinctPoints draws k distinct points of [0, n).
func distinctPoints(src *rng.Source, n, k int) []metric.Point {
	set := make([]metric.Point, k)
	for i, p := range src.Perm(n)[:k] {
		set[i] = metric.Point(p)
	}
	return set
}

// checkTable fails unless table holds Kernel.Nearest to the decoded set
// at every point of r's space.
func checkTable(t *testing.T, r *Router, table, set []int32) {
	t.Helper()
	if len(table) != r.g.Size() {
		t.Fatalf("table of %d entries over %d points", len(table), r.g.Size())
	}
	for p := range table {
		if want := r.kern.Nearest(metric.Point(p), set); int(table[p]) != want {
			t.Fatalf("%s: table[%d] = %d, Kernel.Nearest = %d (set %v)", r.g.Space().Name(), p, table[p], want, set)
		}
	}
}

// TestSharedTableIsTheKernel: the walker that makes a run toward one
// multi-member set long enough to pay for a table scores against one
// equal to Kernel.Nearest at every point, on every kernel shape; the
// run's earlier walkers scan the set itself. At these sizes the second
// walker builds it, and on a ring of 2^12 points the 16th.
func TestSharedTableIsTheKernel(t *testing.T) {
	big, err := metric.NewRing(1 << 12)
	if err != nil {
		t.Fatal(err)
	}
	for _, space := range append(shareSpaces(t), big) {
		g := shareGraph(t, space, 0, 1)
		r := New(g, Options{})
		src := rng.New(2)
		run := max(2, g.Size()/tablePoints)
		for trial := 0; trial < 20; trial++ {
			set := distinctPoints(src, g.Size(), 2+src.Intn(11))
			a := r.NewArena()
			from := metric.Point(src.Intn(g.Size()))
			ws := make([]*Walker, run+1)
			for i := range ws {
				if ws[i], err = a.Walker(nil, from, set); err != nil {
					t.Fatal(err)
				}
				if want := i+1 >= run; ws[i].tabled != want {
					t.Fatalf("%s: walker %d of the run: tabled = %v, want %v", space.Name(), i+1, ws[i].tabled, want)
				}
			}
			if &ws[run-1].set[0] != &ws[run].set[0] {
				t.Fatalf("%s: the run's tabled walkers hold two tables", space.Name())
			}
			checkTable(t, r, ws[run-1].set, ws[0].set)
		}
	}
}

// TestSharedTableIsInvisible: walkers carved from one arena in runs of
// identical sets — interleaved with other sets, single targets and
// returns of earlier sets — and stepped on several goroutines, as
// snapshot workers and shards step them, end exactly as the same
// searches through Router.Walker, whose one-walker arena never shares:
// same delivery, hops, target and traced path, for every dead-end
// policy, on healthy networks and with 30 % of the nodes failed. Every
// table a walker holds is its own set's, and a run's walkers hold one.
func TestSharedTableIsInvisible(t *testing.T) {
	const searches, goroutines = 240, 4
	for _, space := range shareSpaces(t) {
		for _, failFrac := range []float64{0, 0.3} {
			g := shareGraph(t, space, failFrac, 3)
			alive := make([]metric.Point, 0, g.Size())
			for p := 0; p < g.Size(); p++ {
				if g.Alive(metric.Point(p)) {
					alive = append(alive, metric.Point(p))
				}
			}
			src := rng.New(4)
			var sets, pool [][]metric.Point
			for len(sets) < searches {
				var set []metric.Point
				switch {
				case src.Bool(0.15):
					set = distinctPoints(src, g.Size(), 1)
				case len(pool) > 0 && src.Bool(0.3):
					set = pool[src.Intn(len(pool))]
				default:
					set = distinctPoints(src, g.Size(), 2+src.Intn(11))
					pool = append(pool, set)
				}
				for run := 1 + src.Intn(4); run > 0; run-- {
					sets = append(sets, set)
				}
			}
			from := make([]metric.Point, len(sets))
			for i := range from {
				from[i] = alive[src.Intn(len(alive))]
			}
			for _, policy := range []DeadEndPolicy{Terminate, RandomReroute, Backtrack} {
				name := space.Name() + "/" + policy.String() + "/fail=" + strconv.FormatFloat(failFrac, 'g', -1, 64)
				r := New(g, Options{DeadEnd: policy, TracePath: true})
				a := r.NewArena()
				ws := make([]*Walker, len(sets))
				for i, set := range sets {
					ws[i], _ = a.Walker(rng.New(uint64(i)), from[i], set)
				}
				var wg sync.WaitGroup
				for k := 0; k < goroutines; k++ {
					wg.Add(1)
					go func(k int) {
						defer wg.Done()
						for i := k; i < len(ws); i += goroutines {
							for ws[i] != nil && ws[i].Step() {
							}
						}
					}(k)
				}
				wg.Wait()

				tabled, tables := 0, map[*int32][]int32{}
				for i, w := range ws {
					want, err := r.RouteAny(rng.New(uint64(i)), from[i], sets[i])
					if (w == nil) != (err != nil) {
						t.Fatalf("%s search %d: arena carved %v, Router.Walker erred %v", name, i, w != nil, err)
					}
					if w == nil {
						continue
					}
					if got := w.Result(); !reflect.DeepEqual(got, want) {
						t.Fatalf("%s search %d (tabled %v): %+v, want Router.Walker's %+v", name, i, w.tabled, got, want)
					}
					if !w.tabled {
						continue
					}
					tabled++
					decoded, err := r.liveTargets(nil, sets[i])
					if err != nil {
						t.Fatal(err)
					}
					prev, ok := tables[&w.set[0]]
					if !ok {
						checkTable(t, r, w.set, decoded) // a new table: check it once
						tables[&w.set[0]] = decoded
					} else if !reflect.DeepEqual(prev, decoded) {
						t.Fatalf("%s search %d: the table of %v is reused for %v", name, i, prev, decoded)
					}
				}
				if tabled == 0 || len(tables) < 2 {
					t.Fatalf("%s: %d tabled walkers over %d tables: the test shares nothing", name, tabled, len(tables))
				}
			}
		}
	}
}

// TestWalkerSize pins the Walker at 184 bytes on 64-bit platforms. The
// engine keeps one per lookup in flight, so every byte is paid per
// message where most lookups are in flight at once (live_seq): a
// 24-byte slice field for the shared distance table raised
// bytes_per_msg by 4–6 % on workloads that never build one (live_seq
// 802.7 → 834.7, churn_pit 998.6 → 1031, fig6_static 559.3 → 591.8),
// which is why the table rides in the set slot and its flag in the
// padding after last. A separate reroute count, always equal to
// Result.Reroutes, made it 192. The history and tried stack are int32
// slices, a backtracking walker's 104-byte share of its arena's stack
// slab (208 bytes while tried entries were Points and history frames
// two words).
func TestWalkerSize(t *testing.T) {
	if strconv.IntSize != 64 {
		t.Skip("the pinned size is a 64-bit layout")
	}
	if got := unsafe.Sizeof(Walker{}); got != 184 {
		t.Errorf("unsafe.Sizeof(Walker{}) = %d, want 184", got)
	}
	r := &Router{opt: Options{DeadEnd: Backtrack}.withDefaults(1)}
	if _, tried, history := r.shares(); (tried+history)*4 != 104 {
		t.Errorf("a backtracking walker's stack share is %d bytes, want 104", (tried+history)*4)
	}
}

// TestArenaCarveAllocs pins what carving arenaChunk walkers toward
// 12-member sets costs: the arena, and per chunk its four slabs —
// walkers (but the first chunk's one, which lives in the arena), path
// points, tried stacks with their histories, and the set shares of its walkers that scan their set — when
// the set alternates between two keys, as Zipf traffic changes it, so no
// table is ever built; one distance table more when every walker goes to
// one set, as a flood's do, and no set slab once its walkers score from
// that table.
func TestArenaCarveAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	const n = 1 << 12
	g := buildRing(t, n, 4, 3)
	r := New(g, Options{DeadEnd: Backtrack, TracePath: true})
	var hot, cold []metric.Point
	for k := 0; k < 12; k++ {
		hot = append(hot, metric.Point(n/2+100*k))
		cold = append(cold, metric.Point(n/4+100*k))
	}
	for _, c := range []struct {
		name   string
		sets   [2][]metric.Point
		tables int
	}{
		{"alternating", [2][]metric.Point{hot, cold}, 0},
		{"repeating", [2][]metric.Point{hot, hot}, 1},
	} {
		var chunks, scanning int // chunks, and those that issued a scanning walker
		avg := testing.AllocsPerRun(20, func() {
			a := r.NewArena()
			chunks, scanning = 0, 0
			scanned := false
			for i := 0; i < arenaChunk; i++ {
				carved := a.Carved()
				w, err := a.Walker(nil, metric.Point(i), c.sets[i%2])
				if err != nil {
					t.Fatal(err)
				}
				if a.Carved() > carved {
					chunks++
					scanned = false
				}
				if !w.tabled && !scanned {
					scanning++
					scanned = true
				}
			}
		})
		if want := float64(1 + 3*chunks - 1 + scanning + c.tables); avg > want {
			t.Errorf("%s sets: carving %d walkers in %d chunks allocates %.1f times, want at most %.0f",
				c.name, arenaChunk, chunks, avg, want)
		}
	}
}
