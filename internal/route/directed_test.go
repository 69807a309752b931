package route

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/metric"
	"repro/internal/rng"
)

// DirectedOnly routing must never traverse a link backwards.
func TestDirectedOnlyIgnoresInLinks(t *testing.T) {
	// Ring of 64 with a single long link 5 -> 40. Symmetric routing
	// from 40 toward 5's neighbourhood can use the in-link; directed
	// routing cannot.
	g := graph.New(mustRing(t, 64))
	if err := g.AddLong(5, 40); err != nil {
		t.Fatal(err)
	}
	src := rng.New(1)

	sym := New(g, Options{TracePath: true})
	res, err := sym.Route(src, 40, 6)
	if err != nil {
		t.Fatal(err)
	}
	usedInLink := false
	for i := 1; i < len(res.Path); i++ {
		if res.Path[i-1] == 40 && res.Path[i] == 5 {
			usedInLink = true
		}
	}
	if !usedInLink {
		t.Error("symmetric routing should exploit the in-link 40->5")
	}

	dir := New(g, Options{DirectedOnly: true, TracePath: true})
	res, err = dir.Route(src, 40, 6)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(res.Path); i++ {
		if res.Path[i-1] == 40 && res.Path[i] == 5 {
			t.Fatal("directed routing traversed a link backwards")
		}
	}
	if !res.Delivered {
		t.Error("short links still guarantee delivery")
	}
}

// Directed routing is never faster than symmetric routing on the same
// network (the candidate set is a subset).
func TestDirectedNeverBeatsSymmetric(t *testing.T) {
	const n = 1 << 11
	g, err := graph.BuildIdeal(mustRing(t, n), graph.PaperConfig(8), rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	sym := New(g, Options{})
	dir := New(g, Options{DirectedOnly: true})
	src := rng.New(8)
	var symTotal, dirTotal int
	const searches = 300
	for i := 0; i < searches; i++ {
		from := metric.Point(src.Intn(n))
		to := metric.Point(src.Intn(n))
		rs, err := sym.Route(src, from, to)
		if err != nil {
			t.Fatal(err)
		}
		rd, err := dir.Route(src, from, to)
		if err != nil {
			t.Fatal(err)
		}
		if !rs.Delivered || !rd.Delivered {
			t.Fatal("failure-free searches must deliver")
		}
		symTotal += rs.Hops
		dirTotal += rd.Hops
	}
	if symTotal > dirTotal {
		t.Errorf("symmetric total hops %d should not exceed directed %d", symTotal, dirTotal)
	}
}

// Reroute counting: MaxReroutes defaults to one restart.
func TestRerouteDefaultBudget(t *testing.T) {
	g := graph.New(mustRing(t, 16))
	g.Fail(7)
	g.Fail(9) // walls off target 8
	r := New(g, Options{DeadEnd: RandomReroute})
	src := rng.New(9)
	res, err := r.Route(src, 0, 8)
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered {
		t.Error("walled-off target cannot be reached")
	}
	if res.Reroutes > 1 {
		t.Errorf("default budget is 1 restart, took %d", res.Reroutes)
	}
}

// Trace paths start at the origin and end at the target on success.
func TestTraceEndpoints(t *testing.T) {
	g, err := graph.BuildIdeal(mustRing(t, 256), graph.PaperConfig(4), rng.New(10))
	if err != nil {
		t.Fatal(err)
	}
	r := New(g, Options{TracePath: true})
	res, err := r.Route(rng.New(11), 3, 200)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Delivered {
		t.Fatal("should deliver")
	}
	if res.Path[0] != 3 || res.Path[len(res.Path)-1] != 200 {
		t.Errorf("path endpoints = %d..%d", res.Path[0], res.Path[len(res.Path)-1])
	}
	if len(res.Path) != res.Hops+1 {
		t.Errorf("path length %d != hops+1 (%d)", len(res.Path), res.Hops+1)
	}
}

// Greedy on a torus with no long links is CAN's zone routing: every
// hop moves one grid step closer, so every pair is delivered in
// exactly its wrapped L1 distance, whichever way links are read.
func TestGreedyOnBareTorusTakesDistanceHops(t *testing.T) {
	for _, side := range []int{2, 5, 8} {
		torus, err := metric.NewTorus(side, 2)
		if err != nil {
			t.Fatal(err)
		}
		g := graph.New(torus)
		for _, opt := range []Options{{}, {DirectedOnly: true}} {
			r := New(g, opt)
			for a := metric.Point(0); int(a) < g.Size(); a++ {
				for b := metric.Point(0); int(b) < g.Size(); b++ {
					res, err := r.Route(rng.New(1), a, b)
					if err != nil {
						t.Fatal(err)
					}
					if want := torus.Distance(a, b); !res.Delivered || res.Hops != want {
						t.Fatalf("side %d %+v: %d -> %d delivered=%v in %d hops, want %d",
							side, opt, a, b, res.Delivered, res.Hops, want)
					}
				}
			}
		}
	}
}
