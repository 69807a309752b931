package route

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/metric"
	"repro/internal/rng"
)

func TestCongestionDetours(t *testing.T) {
	// A bare 64-ring plus one long link 0→16, searching 0→32: the
	// strict-progress neighbours of 0 are 1 and 63 (distance 31) and
	// the shortcut 16 (distance 16). Plain greedy must take the
	// shortcut; with node 16 congested enough, the penalized rule must
	// detour through a short link instead — and still deliver.
	ring := mustRing(t, 64)
	g := graph.New(ring)
	if err := g.AddLong(0, 16); err != nil {
		t.Fatal(err)
	}
	hot := map[metric.Point]float64{16: 100}
	r := New(g, Options{
		Congestion: func(q metric.Point) float64 { return hot[q] },
		TracePath:  true,
	})
	res, err := r.Route(rng.New(1), 0, 32)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Delivered {
		t.Fatal("congested search must still deliver")
	}
	for _, p := range res.Path {
		if p == 16 {
			t.Fatalf("search routed through the congested node: %v", res.Path)
		}
	}

	// Remove the penalty: the same search must take the congested
	// shortcut (sanity that the detour above was the penalty's doing).
	r = New(g, Options{TracePath: true})
	res, err = r.Route(rng.New(1), 0, 32)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Path) < 2 || res.Path[1] != 16 {
		t.Fatalf("plain greedy should hop 0→16 first, path %v", res.Path)
	}
}

func TestCongestionPreservesDelivery(t *testing.T) {
	// Under any congestion signal, penalized greedy keeps the strict-
	// progress invariant, so failure-free networks always deliver and
	// hops never exceed the metric distance... of the worst progress
	// chain (each hop strictly reduces distance, so hops <= initial
	// distance).
	g := buildRing(t, 256, 6, 2)
	src := rng.New(3)
	congestion := func(q metric.Point) float64 { return 3 * float64(q%7) }
	r := New(g, Options{Congestion: congestion})
	space := g.Space()
	for i := 0; i < 200; i++ {
		from := metric.Point(src.Intn(256))
		to := metric.Point(src.Intn(256))
		if from == to {
			continue
		}
		res, err := r.Route(src, from, to)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Delivered {
			t.Fatalf("penalized greedy failed %d->%d on a healthy network", from, to)
		}
		if res.Hops > space.Distance(from, to) {
			t.Fatalf("hops %d exceed metric distance %d: strict progress violated",
				res.Hops, space.Distance(from, to))
		}
	}
}

func TestCongestionComposesWithBacktrack(t *testing.T) {
	// The dead-end machinery is orthogonal: on a 40%-failed ring,
	// penalized greedy + backtracking must not deliver less than
	// penalized greedy + terminate.
	g := buildRing(t, 1024, 8, 4)
	fsrc := rng.New(5)
	for i := 0; i < 1024; i++ {
		if fsrc.Bool(0.4) {
			g.Fail(metric.Point(i))
		}
	}
	congestion := func(q metric.Point) float64 { return float64(q % 11) }
	count := func(opt Options) int {
		opt.Congestion = congestion
		r := New(g, opt)
		src := rng.New(6)
		delivered := 0
		for i := 0; i < 150; i++ {
			from, ok1 := g.RandomAlive(src)
			to, ok2 := g.RandomAlive(src)
			if !ok1 || !ok2 || from == to {
				continue
			}
			res, err := r.Route(src, from, to)
			if err != nil {
				t.Fatal(err)
			}
			if res.Delivered {
				delivered++
			}
		}
		return delivered
	}
	term := count(Options{DeadEnd: Terminate})
	back := count(Options{DeadEnd: Backtrack})
	if back < term {
		t.Errorf("backtrack delivered %d < terminate %d under congestion", back, term)
	}
}
