package route

import (
	"reflect"
	"slices"
	"testing"

	"repro/internal/metric"
	"repro/internal/rng"
)

// recycleSets is a sequence of target sets that exercises every way a
// recycled walker can meet its next set: single targets, 3- and
// 12-member sets, runs long enough to earn a table, and sets that
// alternate or return.
func recycleSets(src *rng.Source, n, count int) [][]metric.Point {
	var sets, pool [][]metric.Point
	for len(sets) < count {
		var set []metric.Point
		switch {
		case src.Bool(0.2):
			set = distinctPoints(src, n, 1)
		case len(pool) > 0 && src.Bool(0.4):
			set = pool[src.Intn(len(pool))]
		default:
			set = distinctPoints(src, n, []int{3, 12}[src.Intn(2)])
			pool = append(pool, set)
		}
		for run := 1 + src.Intn(6); run > 0; run-- {
			sets = append(sets, set)
		}
	}
	return sets[:count]
}

// TestReleasedPathOutlivesItsWalker: a Result that Release hands back
// keeps its path, at cap == len, while the walker it came from runs
// search after search — each of which ends as the same search on a
// fresh arena — and the arena issues released walkers before it
// carves.
func TestReleasedPathOutlivesItsWalker(t *testing.T) {
	g := crashed(buildRing(t, 1<<10, 4, 60), 0.3, 61)
	for _, policy := range []DeadEndPolicy{Terminate, RandomReroute, Backtrack} {
		r := New(g, Options{DeadEnd: policy, TracePath: true})
		a := r.NewArena()
		pick := rng.New(62)
		sets := recycleSets(pick, g.Size(), 400)
		var kept, copies []Result
		var last *Walker
		for i, set := range sets {
			from, _ := g.RandomAlive(pick)
			w, err := a.Walker(rng.New(uint64(i)), from, set)
			want, werr := r.RouteAny(rng.New(uint64(i)), from, set)
			if (err != nil) != (werr != nil) {
				t.Fatalf("%s search %d: arena error %v, Router's %v", policy, i, err, werr)
			}
			if err != nil {
				continue
			}
			if last != nil && w != last {
				t.Fatalf("%s search %d: the arena carved a walker while one was released", policy, i)
			}
			for w.Step() {
			}
			res := a.Release(w)
			if !reflect.DeepEqual(res, want) {
				t.Fatalf("%s search %d: released %+v, want %+v", policy, i, res, want)
			}
			if cap(res.Path) != len(res.Path) {
				t.Fatalf("%s search %d: kept path has len %d, cap %d", policy, i, len(res.Path), cap(res.Path))
			}
			kept = append(kept, res)
			res.Path = slices.Clone(res.Path)
			copies = append(copies, res)
			last = w
		}
		if !reflect.DeepEqual(kept, copies) {
			t.Fatalf("%s: a kept path changed under later searches on its walker", policy)
		}
	}
}

// TestArenaRecycleAllocs: once the arena has released a walker, a carve
// from the free stack, its search and its release allocate nothing —
// untraced, toward single targets and 12-member sets that alternate (so
// each release of the set share compares against is copied) — and
// traced, nothing but the kept-path slab's chunks.
func TestArenaRecycleAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	const n = 1 << 11
	g := crashed(buildRing(t, n, 11, 63), 0.3, 64)
	pick := rng.New(65)
	var hot, cold []metric.Point
	for k := 0; k < 12; k++ {
		hot = append(hot, metric.Point(n/2+100*k))
		cold = append(cold, metric.Point(n/4+100*k))
	}
	type search struct {
		from    metric.Point
		targets []metric.Point
	}
	searches := make([]search, 1000)
	for i := range searches {
		searches[i].from, _ = g.RandomAlive(pick)
		to, _ := g.RandomAlive(pick)
		searches[i].targets = [][]metric.Point{{to}, hot, cold}[i%3]
	}
	for _, traced := range []bool{false, true} {
		a := New(g, Options{DeadEnd: Backtrack, TracePath: traced}).NewArena()
		points := 0
		run := func() {
			for _, s := range searches {
				w, err := a.Walker(nil, s.from, s.targets)
				if err != nil {
					t.Fatal(err)
				}
				for w.Step() {
				}
				points += len(a.Release(w).Path)
			}
		}
		run() // grows the one walker's buffers to the longest walk
		points = 0
		var allocs float64
		if traced {
			allocs = testing.AllocsPerRun(1, run)
		} else {
			allocs = testing.AllocsPerRun(5, run)
		}
		if want := float64((points + keptChunk - 1) / keptChunk); allocs > want {
			t.Errorf("traced=%v: %d recycled searches allocated %.0f times, want at most %.0f (kept-path chunks for %d points)",
				traced, len(searches), allocs, want, points)
		}
	}
}

// TestTableNeverBecomesASetBuffer: a tabled walker released and issued
// again toward other multi-member sets decodes them into a buffer of
// its own, never into the distance table it held, which later walkers
// of the run still score from.
func TestTableNeverBecomesASetBuffer(t *testing.T) {
	g := shareGraph(t, shareSpaces(t)[2], 0, 66)
	r := New(g, Options{TracePath: true})
	a := r.NewArena()
	pick := rng.New(67)
	hot := distinctPoints(pick, g.Size(), 12)
	var tabled *Walker
	for i := 0; tabled == nil; i++ {
		if i > 10 {
			t.Fatal("no walker of the run took a table")
		}
		w, err := a.Walker(nil, metric.Point(pick.Intn(g.Size())), hot)
		if err != nil {
			t.Fatal(err)
		}
		if w.tabled {
			tabled = w
		}
	}
	shared, table := tabled.set, slices.Clone(tabled.set)
	a.Release(tabled)
	for i := 0; i < 20; i++ {
		set := distinctPoints(pick, g.Size(), 12)
		w, err := a.Walker(nil, metric.Point(pick.Intn(g.Size())), set)
		if err != nil {
			t.Fatal(err)
		}
		if w != tabled {
			t.Fatalf("issue %d: the arena carved a walker while one was released", i)
		}
		if w.tabled || &w.set[:1][0] == &shared[0] {
			t.Fatalf("issue %d: a walker toward a new set decodes into the old run's table", i)
		}
		for w.Step() {
		}
		a.Release(w)
	}
	if !slices.Equal(shared, table) {
		t.Fatal("the distance table changed after its walker was recycled")
	}
}

// TestRecyclingKeepsShareDecisions: the arena's share decisions — which
// walkers scan their set, which score from a table, and which walkers
// share one table — are the same whether released walkers are recycled
// or every walker is carved fresh, however the releases interleave with
// the carves: immediately (so a walker decodes its next set into the
// buffer share last compared against), with one or several walkers still
// in flight, on alternating sets, repeating sets, and the mixed sequence.
func TestRecyclingKeepsShareDecisions(t *testing.T) {
	g := shareGraph(t, shareSpaces(t)[1], 0.2, 68)
	pick := rng.New(69)
	hot, cold := distinctPoints(pick, g.Size(), 12), distinctPoints(pick, g.Size(), 12)
	alive := make([]metric.Point, 0, g.Size())
	for p := 0; p < g.Size(); p++ {
		if g.Alive(metric.Point(p)) {
			alive = append(alive, metric.Point(p))
		}
	}
	const count = 600
	sequences := map[string][][]metric.Point{"mixed": recycleSets(pick, g.Size(), count)}
	for i := 0; i < count; i++ {
		sequences["alternating"] = append(sequences["alternating"], [][]metric.Point{hot, cold}[i%2])
		sequences["repeating"] = append(sequences["repeating"], hot)
	}
	from := make([]metric.Point, count)
	for i := range from {
		from[i] = alive[pick.Intn(len(alive))]
	}
	for name, sets := range sequences {
		// decisions returns, per search, -1 when its walker scans its set,
		// -2 when it cannot start, and otherwise the index of the first
		// walker of its table.
		decisions := func(lag int) []int {
			r := New(g, Options{DeadEnd: Backtrack, TracePath: true})
			a := r.NewArena()
			out := make([]int, len(sets))
			first := map[*int32]int{}
			var inFlight []*Walker
			for i, set := range sets {
				w, err := a.Walker(nil, from[i], set)
				if err != nil { // a dead single target
					out[i] = -2
					continue
				}
				out[i] = -1
				if w.tabled {
					if _, ok := first[&w.set[0]]; !ok {
						first[&w.set[0]] = i
					}
					out[i] = first[&w.set[0]]
				}
				if lag < 0 {
					continue
				}
				for w.Step() {
				}
				inFlight = append(inFlight, w)
				if len(inFlight) > lag {
					a.Release(inFlight[0])
					inFlight = inFlight[1:]
				}
			}
			return out
		}
		want := decisions(-1) // every walker carved fresh
		tabled := 0
		for _, d := range want {
			if d >= 0 {
				tabled++
			}
		}
		if name != "alternating" && tabled == 0 {
			t.Fatalf("%s: no walker took a table; the comparison is vacuous", name)
		}
		for _, lag := range []int{0, 1, 3} {
			if got := decisions(lag); !slices.Equal(got, want) {
				t.Errorf("%s, releases %d behind: share decisions differ from carving fresh:\n got  %v\n want %v",
					name, lag, got, want)
			}
		}
	}
}

// TestRecycledWalkersMeetLargerSets: arenaChunk walkers issued toward
// single targets, released, and issued again toward 12-member sets take
// their set shares from a slab sized while the arena has no walker left
// to carve, and every search still ends as on a fresh arena; the arena
// carves the doubling total that covers them, arenaChunk itself.
func TestRecycledWalkersMeetLargerSets(t *testing.T) {
	g := shareGraph(t, shareSpaces(t)[2], 0, 70)
	r := New(g, Options{DeadEnd: Backtrack, TracePath: true})
	a := r.NewArena()
	pick := rng.New(71)
	ws := make([]*Walker, arenaChunk)
	for i := range ws {
		var err error
		if ws[i], err = a.Walker(nil, metric.Point(pick.Intn(g.Size())), distinctPoints(pick, g.Size(), 1)); err != nil {
			t.Fatal(err)
		}
	}
	for _, w := range ws {
		a.Release(w)
	}
	for i := range ws {
		from, set := metric.Point(pick.Intn(g.Size())), distinctPoints(pick, g.Size(), 12)
		w, err := a.Walker(nil, from, set)
		if err != nil {
			t.Fatal(err)
		}
		for w.Step() {
		}
		want, err := r.RouteAny(nil, from, set)
		if err != nil {
			t.Fatal(err)
		}
		if got := w.Result(); !reflect.DeepEqual(got, want) {
			t.Fatalf("reissue %d: %+v, want %+v", i, got, want)
		}
	}
	if a.Carved() != arenaChunk {
		t.Errorf("the arena carved %d walkers for %d in flight at once", a.Carved(), arenaChunk)
	}
}
