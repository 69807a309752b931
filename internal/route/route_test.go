package route

import (
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/metric"
	"repro/internal/rng"
)

func mustRing(t testing.TB, n int) *metric.Ring {
	t.Helper()
	r, err := metric.NewRing(n)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func mustLine(t testing.TB, n int) *metric.Line {
	t.Helper()
	l, err := metric.NewLine(n)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func buildRing(t testing.TB, n, links int, seed uint64) *graph.Graph {
	t.Helper()
	g, err := graph.BuildIdeal(mustRing(t, n), graph.PaperConfig(links), rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestStringers(t *testing.T) {
	if TwoSided.String() != "two-sided" || OneSided.String() != "one-sided" {
		t.Error("sidedness strings wrong")
	}
	if Sidedness(9).String() == "" || DeadEndPolicy(9).String() == "" {
		t.Error("unknown values should still stringify")
	}
	if Terminate.String() != "terminate" || RandomReroute.String() != "random-reroute" || Backtrack.String() != "backtracking" {
		t.Error("policy strings wrong")
	}
}

func TestDefaults(t *testing.T) {
	g := buildRing(t, 64, 3, 1)
	r := New(g, Options{})
	o := r.opt
	if o.Sidedness != TwoSided || o.DeadEnd != Terminate || o.BacktrackMemory != 5 || o.MaxReroutes != 1 {
		t.Errorf("defaults = %+v", o)
	}
	if o.MaxHops <= 0 {
		t.Error("MaxHops default must be positive")
	}
}

func TestRouteValidatesEndpoints(t *testing.T) {
	g := buildRing(t, 32, 2, 1)
	g.Fail(5)
	r := New(g, Options{})
	if _, err := r.Route(rng.New(1), 5, 10); err == nil {
		t.Error("routing from a dead node should error")
	}
	if _, err := r.Route(rng.New(1), 10, 5); err == nil {
		t.Error("routing to a dead node should error")
	}
}

func TestRouteTrivial(t *testing.T) {
	g := buildRing(t, 32, 2, 1)
	r := New(g, Options{TracePath: true})
	res, err := r.Route(rng.New(1), 7, 7)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Delivered || res.Hops != 0 {
		t.Errorf("self-route = %+v", res)
	}
	if len(res.Path) != 1 || res.Path[0] != 7 {
		t.Errorf("path = %v", res.Path)
	}
}

func TestRouteAlwaysDeliversNoFailures(t *testing.T) {
	// With short links present and no failures, greedy routing always
	// delivers: the ±1 links guarantee strict progress.
	g := buildRing(t, 512, 4, 2)
	r := New(g, Options{})
	src := rng.New(3)
	for i := 0; i < 200; i++ {
		from := metric.Point(src.Intn(512))
		to := metric.Point(src.Intn(512))
		res, err := r.Route(src, from, to)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Delivered {
			t.Fatalf("search %d->%d failed in a failure-free network", from, to)
		}
		if res.Hops > g.Space().Distance(from, to) {
			t.Fatalf("greedy took %d hops for distance %d", res.Hops, g.Space().Distance(from, to))
		}
	}
}

func TestRouteProgressMonotoneTwoSided(t *testing.T) {
	g := buildRing(t, 256, 3, 4)
	r := New(g, Options{TracePath: true})
	src := rng.New(5)
	res, err := r.Route(src, 3, 200)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Delivered {
		t.Fatal("should deliver")
	}
	sp := g.Space()
	for i := 1; i < len(res.Path); i++ {
		if sp.Distance(res.Path[i], 200) >= sp.Distance(res.Path[i-1], 200) {
			t.Fatalf("distance did not strictly decrease at step %d: %v", i, res.Path)
		}
	}
}

func TestRouteOneSidedNeverPassesTarget(t *testing.T) {
	ring := mustRing(t, 256)
	g, err := graph.BuildIdeal(ring, graph.PaperConfig(4), rng.New(6))
	if err != nil {
		t.Fatal(err)
	}
	r := New(g, Options{Sidedness: OneSided, TracePath: true})
	src := rng.New(7)
	for i := 0; i < 50; i++ {
		from := metric.Point(src.Intn(256))
		to := metric.Point(src.Intn(256))
		res, err := r.Route(src, from, to)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Delivered {
			t.Fatalf("one-sided search %d->%d failed without failures", from, to)
		}
		// Clockwise distance must strictly decrease along the path.
		for j := 1; j < len(res.Path); j++ {
			prev := ring.ClockwiseDistance(res.Path[j-1], to)
			nxt := ring.ClockwiseDistance(res.Path[j], to)
			if nxt >= prev {
				t.Fatalf("one-sided cw distance rose: %v", res.Path)
			}
		}
	}
}

func TestRouteOneSidedLine(t *testing.T) {
	g, err := graph.BuildIdeal(mustLine(t, 128), graph.PaperConfig(4), rng.New(8))
	if err != nil {
		t.Fatal(err)
	}
	r := New(g, Options{Sidedness: OneSided, TracePath: true})
	src := rng.New(9)
	// Toward the left boundary and from it: one-sided greedy on a line
	// never steps past the target, whichever way it lies.
	for _, c := range []struct{ from, to metric.Point }{{120, 3}, {0, 127}} {
		res, err := r.Route(src, c.from, c.to)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Delivered {
			t.Fatalf("line one-sided route %d->%d failed", c.from, c.to)
		}
		for _, p := range res.Path {
			if (p-c.to)*(c.from-c.to) < 0 {
				t.Fatalf("one-sided route passed the target: %v", res.Path)
			}
		}
	}
}

func TestTerminateFailsAtDeadEnd(t *testing.T) {
	// Handcraft a dead end: ring of 8, no long links, fail both short
	// neighbours toward the target.
	g := graph.New(mustRing(t, 8))
	g.Fail(1)
	g.Fail(7)
	r := New(g, Options{DeadEnd: Terminate})
	res, err := r.Route(rng.New(1), 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered {
		t.Error("walled-off search should fail")
	}
	if res.Hops != 0 {
		t.Errorf("hops = %d, want 0 (stuck at origin)", res.Hops)
	}
}

func TestRandomRerouteEscapes(t *testing.T) {
	// Node 0 is walled off, but a random restart lands elsewhere and
	// reaches the target.
	g := graph.New(mustRing(t, 16))
	g.Fail(1)
	g.Fail(15)
	r := New(g, Options{DeadEnd: RandomReroute, MaxReroutes: 10})
	src := rng.New(2)
	res, err := r.Route(src, 0, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Delivered {
		t.Fatalf("re-route should eventually deliver: %+v", res)
	}
	if res.Reroutes == 0 {
		t.Error("expected at least one reroute")
	}
}

func TestRandomRerouteBounded(t *testing.T) {
	// Target reachable only via its two dead short neighbours on a
	// linkless ring: every restart still dead-ends, so the search must
	// stop after MaxReroutes.
	g := graph.New(mustRing(t, 16))
	g.Fail(7)
	g.Fail(9)
	r := New(g, Options{DeadEnd: RandomReroute, MaxReroutes: 3})
	src := rng.New(3)
	res, err := r.Route(src, 0, 8)
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered {
		t.Error("unreachable target should not be delivered")
	}
	if res.Reroutes > 3 {
		t.Errorf("reroutes = %d exceeds bound", res.Reroutes)
	}
}

func TestBacktrackEscapesLocalDeadEnd(t *testing.T) {
	// Ring of 32, target 16, start 2. Node 3 has a tempting long link
	// into a dead pocket (13, whose onward neighbour 14 is dead), and
	// node 5 has a long link that jumps over the wall to 17. Greedy
	// takes 2→3→13 and gets stuck; backtracking must return to 3,
	// take the next-best neighbour 4, and reach 16 via 5→17.
	g := graph.New(mustRing(t, 32)) // short links only
	if err := g.AddLong(3, 13); err != nil {
		t.Fatal(err)
	}
	if err := g.AddLong(5, 17); err != nil {
		t.Fatal(err)
	}
	g.Fail(14)

	term := New(g, Options{DeadEnd: Terminate, TracePath: true})
	res, err := term.Route(rng.New(4), 2, 16)
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered {
		t.Fatalf("terminate policy should fail at the pocket: %+v", res)
	}

	bt := New(g, Options{DeadEnd: Backtrack, BacktrackMemory: 5, TracePath: true})
	res, err = bt.Route(rng.New(4), 2, 16)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Delivered {
		t.Fatalf("backtracking should deliver: %+v", res)
	}
	if res.Backtracks == 0 {
		t.Error("expected backtracking moves")
	}
}

func TestBacktrackMemoryExhaustion(t *testing.T) {
	// Fully walled-off target: backtracking must terminate (not spin).
	g := graph.New(mustRing(t, 16))
	g.Fail(7)
	g.Fail(9)
	r := New(g, Options{DeadEnd: Backtrack, BacktrackMemory: 5})
	res, err := r.Route(rng.New(5), 0, 8)
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered {
		t.Error("unreachable target should fail")
	}
}

func TestMaxHopsCap(t *testing.T) {
	g := buildRing(t, 1024, 1, 10)
	r := New(g, Options{MaxHops: 3})
	src := rng.New(11)
	res, err := r.Route(src, 0, 512)
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered {
		t.Error("3-hop cap cannot reach the antipode")
	}
	if res.Hops > 3 {
		t.Errorf("hops = %d exceeds cap", res.Hops)
	}
}

// Property: routing between random endpoints in an undamaged network
// always delivers, with hops bounded by the ring distance, under all
// policies and sidedness settings.
func TestRouteDeliveryProperty(t *testing.T) {
	g := buildRing(t, 128, 3, 12)
	policies := []DeadEndPolicy{Terminate, RandomReroute, Backtrack}
	sides := []Sidedness{TwoSided, OneSided}
	for _, pol := range policies {
		for _, side := range sides {
			r := New(g, Options{DeadEnd: pol, Sidedness: side})
			f := func(a, b uint16, seed uint64) bool {
				from := metric.Point(int(a) % 128)
				to := metric.Point(int(b) % 128)
				res, err := r.Route(rng.New(seed), from, to)
				if err != nil {
					return false
				}
				if !res.Delivered {
					return false
				}
				limit := g.Space().Distance(from, to)
				if side == OneSided {
					if ring, ok := g.Space().(*metric.Ring); ok {
						limit = ring.ClockwiseDistance(from, to)
					}
				}
				return res.Hops <= limit
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
				t.Errorf("policy=%v side=%v: %v", pol, side, err)
			}
		}
	}
}

// Greedy routing with lg n links should use far fewer hops than the
// ring distance on average — the O(log²n/ℓ) bound in action.
func TestRouteLogarithmicHops(t *testing.T) {
	const n = 1 << 12
	g := buildRing(t, n, 12, 13)
	r := New(g, Options{})
	src := rng.New(14)
	var total int
	const searches = 300
	for i := 0; i < searches; i++ {
		from := metric.Point(src.Intn(n))
		to := metric.Point(src.Intn(n))
		res, err := r.Route(src, from, to)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Delivered {
			t.Fatal("failure-free search failed")
		}
		total += res.Hops
	}
	mean := float64(total) / searches
	// lg²(4096)/12 = 144/12 = 12; allow generous slack.
	if mean > 30 {
		t.Errorf("mean hops = %v, want O(log²n/ℓ) ≈ 12", mean)
	}
}

func BenchmarkRouteTwoSided(b *testing.B) {
	const n = 1 << 14
	g, err := graph.BuildIdeal(mustRing(b, n), graph.PaperConfig(14), rng.New(1))
	if err != nil {
		b.Fatal(err)
	}
	r := New(g, Options{})
	src := rng.New(2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		from := metric.Point(src.Intn(n))
		to := metric.Point(src.Intn(n))
		if _, err := r.Route(src, from, to); err != nil {
			b.Fatal(err)
		}
	}
}
