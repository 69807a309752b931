package route

import (
	"reflect"
	"slices"
	"testing"

	"repro/internal/alloctest"
	"repro/internal/failure"
	"repro/internal/graph"
	"repro/internal/metric"
	"repro/internal/rng"
)

func TestRouteHonestNoMalicious(t *testing.T) {
	g := buildRing(t, 256, 4, 20)
	a := New(g, Options{}).NewArena()
	res, err := a.RouteHonest(rng.New(1), 3, 200)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Delivered {
		t.Error("honest network should deliver")
	}
}

func TestRouteHonestDropsAtMaliciousNode(t *testing.T) {
	// Short-link-only ring: the route 0 -> 4 is forced through 1,2,3.
	g := graph.New(mustRing(t, 16))
	if err := g.SetMalicious(2, true); err != nil {
		t.Fatal(err)
	}
	a := New(g, Options{}).NewArena()
	res, err := a.RouteHonest(rng.New(2), 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered {
		t.Error("message through a malicious node must be dropped")
	}
	if res.Hops != 2 {
		t.Errorf("hops = %d, want 2 (died on arrival at node 2)", res.Hops)
	}
}

func TestRouteHonestMaliciousTargetDrops(t *testing.T) {
	g := graph.New(mustRing(t, 16))
	if err := g.SetMalicious(4, true); err != nil {
		t.Fatal(err)
	}
	a := New(g, Options{}).NewArena()
	res, err := a.RouteHonest(rng.New(3), 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered {
		t.Error("a malicious target swallows the message")
	}
}

// TestRouteHonestDropKeepsCountersAtTheDrop: a dropped search reports
// the hops, reroutes and backtracks its walker had on reaching the first
// malicious node — those of the same walk stopped after as many steps as
// that node's index in the traced path — under RandomReroute and
// Backtrack on a ring with 30 % of its nodes crashed and 10 % of the rest
// malicious. A search that is not dropped ends as Router.Route does. The
// check needs drops after a backtrack and drops before a reroute.
func TestRouteHonestDropKeepsCountersAtTheDrop(t *testing.T) {
	g := crashed(buildRing(t, 1<<10, 3, 80), 0.3, 81)
	if _, err := failure.MarkMalicious(g, 0.1, rng.New(82)); err != nil {
		t.Fatal(err)
	}
	pairs := honestPairs(g, rng.New(83), 2000)
	for _, policy := range []DeadEndPolicy{RandomReroute, Backtrack} {
		a := New(g, Options{DeadEnd: policy}).NewArena()
		traced := New(g, Options{DeadEnd: policy, TracePath: true})
		backtracked, reroutedAfter := 0, 0
		for i, p := range pairs {
			res, err := a.RouteHonest(rng.New(uint64(i)), p[0], p[1])
			if err != nil {
				t.Fatal(err)
			}
			full, err := traced.Route(rng.New(uint64(i)), p[0], p[1])
			if err != nil {
				t.Fatal(err)
			}
			drop := slices.IndexFunc(full.Path[1:], g.Malicious) + 1
			if drop == 0 {
				full.Path = nil
				if !reflect.DeepEqual(res, full) {
					t.Fatalf("%s search %d: %+v, want Route's %+v", policy, i, res, full)
				}
				continue
			}
			w, err := traced.Walker(rng.New(uint64(i)), p[0], []metric.Point{p[1]})
			if err != nil {
				t.Fatal(err)
			}
			for k := 0; k < drop; k++ {
				w.Step()
			}
			at := w.Result()
			want := Result{Hops: at.Hops, Reroutes: at.Reroutes, Backtracks: at.Backtracks, Target: -1}
			if !reflect.DeepEqual(res, want) {
				t.Fatalf("%s search %d dropped at hop %d: %+v, want %+v", policy, i, drop, res, want)
			}
			if at.Backtracks > 0 {
				backtracked++
			}
			if full.Reroutes > at.Reroutes {
				reroutedAfter++
			}
		}
		if policy == Backtrack && backtracked == 0 || policy == RandomReroute && reroutedAfter == 0 {
			t.Fatalf("%s: %d drops after a backtrack, %d before a reroute: the check is vacuous", policy, backtracked, reroutedAfter)
		}
	}
}

func TestRouteRedundantValidation(t *testing.T) {
	g := buildRing(t, 64, 2, 21)
	a := New(g, Options{}).NewArena()
	if _, err := a.RouteRedundant(rng.New(1), 0, 5, 0); err == nil {
		t.Error("copies=0 should error")
	}
}

func TestRouteRedundantImprovesDelivery(t *testing.T) {
	const n = 1 << 11
	g := buildRing(t, n, 11, 22)
	src := rng.New(23)
	if _, err := failure.MarkMalicious(g, 0.15, src); err != nil {
		t.Fatal(err)
	}
	a := New(g, Options{}).NewArena()
	honest := func() (metric.Point, bool) {
		for i := 0; i < 100; i++ {
			p, ok := g.RandomAlive(src)
			if ok && !g.Malicious(p) {
				return p, true
			}
		}
		return 0, false
	}
	direct, redundant := 0, 0
	const searches = 150
	for i := 0; i < searches; i++ {
		from, ok1 := honest()
		to, ok2 := honest()
		if !ok1 || !ok2 || from == to {
			continue
		}
		d, err := a.RouteRedundant(src, from, to, 1)
		if err != nil {
			t.Fatal(err)
		}
		m, err := a.RouteRedundant(src, from, to, 4)
		if err != nil {
			t.Fatal(err)
		}
		if d.Delivered {
			direct++
		}
		if m.Delivered {
			redundant++
		}
		if m.Delivered && !d.Delivered && m.Reroutes == 0 {
			t.Error("recovery without relays is impossible for the same rng stream")
		}
	}
	if redundant <= direct {
		t.Errorf("4 copies delivered %d, direct delivered %d — redundancy should help", redundant, direct)
	}
}

func TestRouteRedundantCountsCost(t *testing.T) {
	g := buildRing(t, 512, 6, 24)
	a := New(g, Options{}).NewArena()
	src := rng.New(25)
	one, err := a.RouteRedundant(src, 3, 400, 1)
	if err != nil {
		t.Fatal(err)
	}
	four, err := a.RouteRedundant(src, 3, 400, 4)
	if err != nil {
		t.Fatal(err)
	}
	if four.Hops <= one.Hops {
		t.Errorf("4 copies cost %d hops vs %d — redundancy must cost traffic", four.Hops, one.Hops)
	}
	if four.Reroutes != 3 {
		t.Errorf("reroutes = %d, want 3 relay hand-offs", four.Reroutes)
	}
}

func TestMarkMaliciousValidation(t *testing.T) {
	g := buildRing(t, 64, 2, 26)
	if _, err := failure.MarkMalicious(g, -0.1, rng.New(1)); err == nil {
		t.Error("negative probability should error")
	}
	marked, err := failure.MarkMalicious(g, 1, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if marked != 64 {
		t.Errorf("marked = %d, want all", marked)
	}
}

func TestSetMaliciousValidation(t *testing.T) {
	g := buildRing(t, 16, 1, 27)
	g.Fail(3)
	if err := g.SetMalicious(3, true); err == nil {
		t.Error("dead node cannot be marked malicious")
	}
	if err := g.SetMalicious(99, true); err == nil {
		t.Error("out-of-range node cannot be marked malicious")
	}
	if g.Malicious(5) {
		t.Error("unmarked node reported malicious")
	}
	if err := g.SetMalicious(5, true); err != nil {
		t.Fatal(err)
	}
	if !g.Malicious(5) {
		t.Error("marked node not reported malicious")
	}
	if err := g.SetMalicious(5, false); err != nil {
		t.Fatal(err)
	}
	if g.Malicious(5) {
		t.Error("unmarking failed")
	}
}

// honestPairs draws count (from, to) pairs of distinct honest live nodes.
func honestPairs(g *graph.Graph, src *rng.Source, count int) [][2]metric.Point {
	var pairs [][2]metric.Point
	for len(pairs) < count {
		from, _ := g.RandomAlive(src)
		to, _ := g.RandomAlive(src)
		if from != to && !g.Malicious(from) && !g.Malicious(to) {
			pairs = append(pairs, [2]metric.Point{from, to})
		}
	}
	return pairs
}

// TestHonestSearcherMatchesFreshSearches: RouteHonest and RouteRedundant
// on one arena, search after search, return what they return on a fresh
// arena each, traced and untraced, under every dead-end
// policy; a traced result keeps the path, an untraced one none.
func TestHonestSearcherMatchesFreshSearches(t *testing.T) {
	g := buildRing(t, 1<<10, 10, 72)
	if _, err := failure.MarkMalicious(g, 0.1, rng.New(73)); err != nil {
		t.Fatal(err)
	}
	pairs := honestPairs(g, rng.New(74), 200)
	for _, policy := range []DeadEndPolicy{Terminate, RandomReroute, Backtrack} {
		for _, traced := range []bool{false, true} {
			r := New(g, Options{DeadEnd: policy, TracePath: traced})
			h := r.NewArena()
			got, want := rng.New(75), rng.New(75)
			for i, p := range pairs {
				res, err := h.RouteHonest(got, p[0], p[1])
				if err != nil {
					t.Fatal(err)
				}
				fresh, err := r.NewArena().RouteHonest(want, p[0], p[1])
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(res, fresh) {
					t.Fatalf("%s traced=%v search %d: RouteHonest %+v, fresh %+v", policy, traced, i, res, fresh)
				}
				if traced != (res.Path != nil) && res.Delivered {
					t.Fatalf("%s traced=%v search %d: delivered with path %v", policy, traced, i, res.Path)
				}
				red, err := h.RouteRedundant(got, p[0], p[1], 1+i%4)
				if err != nil {
					t.Fatal(err)
				}
				freshRed, err := r.NewArena().RouteRedundant(want, p[0], p[1], 1+i%4)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(red, freshRed) {
					t.Fatalf("%s traced=%v search %d: RouteRedundant %+v, fresh %+v", policy, traced, i, red, freshRed)
				}
			}
		}
	}
}

// TestRouteRedundantAllocs pins ext.byzantine's searches at no
// allocation: once an arena has run its first search, RouteRedundant
// with three copies — six legs at most, each an untraced search checked
// for drops at every step — allocates nothing under Backtrack on a ring
// of 2¹¹ nodes with ℓ = 11 and 15 % of them malicious. Each leg through
// Router.Route built a walker of its own: about 19 allocations a call.
func TestRouteRedundantAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	g := buildRing(t, 1<<11, 11, 76)
	if _, err := failure.MarkMalicious(g, 0.15, rng.New(77)); err != nil {
		t.Fatal(err)
	}
	pairs := honestPairs(g, rng.New(78), 500)
	h := New(g, Options{DeadEnd: Backtrack}).NewArena()
	src := rng.New(79)
	search := func(p [2]metric.Point) Result {
		res, err := h.RouteRedundant(src, p[0], p[1], 3)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	for _, p := range pairs { // the path buffer grows to the longest leg
		search(p)
	}
	relays := 0
	n, _ := alloctest.Measure(func() {
		for _, p := range pairs {
			relays += search(p).Reroutes
		}
	})
	if relays == 0 {
		t.Fatal("no copy went through a relay: the pin is vacuous")
	}
	if n != 0 {
		t.Errorf("%d RouteRedundant calls after the first allocated %d times, want 0", len(pairs), n)
	}
}
