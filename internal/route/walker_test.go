package route

import (
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/metric"
	"repro/internal/rng"
)

// walkGraph builds a seeded damaged ring for the walker tests.
func walkGraph(t *testing.T, n, links int, seed uint64, failEvery int) *graph.Graph {
	t.Helper()
	ring, err := metric.NewRing(n)
	if err != nil {
		t.Fatal(err)
	}
	g, err := graph.BuildIdeal(ring, graph.PaperConfig(links), rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	for p := failEvery; failEvery > 0 && p < n; p += failEvery {
		g.Fail(metric.Point(p))
	}
	return g
}

// TestWalkerMatchesRoute pins the refactor's core contract: driving a
// Walker to completion is byte-identical to Route/RouteAny, for every
// dead-end policy, on healthy and damaged networks, single- and
// multi-target.
func TestWalkerMatchesRoute(t *testing.T) {
	for _, failEvery := range []int{0, 3} {
		g := walkGraph(t, 512, 9, 42, failEvery)
		for _, policy := range []DeadEndPolicy{Terminate, RandomReroute, Backtrack} {
			r := New(g, Options{DeadEnd: policy, TracePath: true})
			for i := 0; i < 50; i++ {
				src := rng.New(uint64(100 + i))
				from, ok := g.RandomAlive(src)
				if !ok {
					t.Fatal("no live nodes")
				}
				to, ok := g.RandomAlive(src)
				if !ok || to == from {
					continue
				}
				targets := []metric.Point{to}
				if i%2 == 1 {
					if extra, ok := g.RandomAlive(src); ok {
						targets = append(targets, extra)
					}
				}
				want, err := r.RouteAny(rng.New(uint64(i)), from, targets)
				if err != nil {
					t.Fatal(err)
				}
				w, err := r.Walker(rng.New(uint64(i)), from, targets)
				if err != nil {
					t.Fatal(err)
				}
				steps := 0
				for w.Step() {
					steps++
				}
				got := w.Result()
				if !reflect.DeepEqual(want, got) {
					t.Fatalf("policy %s msg %d: Walker %+v != Route %+v", policy, i, got, want)
				}
				if !w.Done() {
					t.Fatalf("policy %s msg %d: walker not done after Step returned false", policy, i)
				}
			}
		}
	}
}

// TestWalkerStepMovesOncePerHop pins the engine's charging contract:
// every Step that keeps the walk alive visits exactly one new node
// (the traced path grows by one), terminal failing Steps do not move,
// and a delivering Step ends on the target.
func TestWalkerStepMovesOncePerHop(t *testing.T) {
	g := walkGraph(t, 256, 8, 7, 4)
	for _, policy := range []DeadEndPolicy{Terminate, RandomReroute, Backtrack} {
		r := New(g, Options{DeadEnd: policy, TracePath: true})
		for i := 0; i < 40; i++ {
			src := rng.New(uint64(i))
			from, _ := g.RandomAlive(src)
			to, ok := g.RandomAlive(src)
			if !ok || to == from {
				continue
			}
			w, err := r.Walker(rng.New(uint64(i)), from, []metric.Point{to})
			if err != nil {
				t.Fatal(err)
			}
			for !w.Done() {
				before := len(w.Result().Path)
				alive := w.Step()
				after := len(w.Result().Path)
				if alive || w.Result().Delivered {
					// One new traced node per live step (a random
					// re-route may legitimately land on the same node).
					if after != before+1 {
						t.Fatalf("policy %s: live step moved %d nodes", policy, after-before)
					}
				} else if after != before {
					t.Fatalf("policy %s: failing terminal step moved", policy)
				}
			}
			res := w.Result()
			if res.Delivered && w.At() != res.Target {
				t.Fatalf("policy %s: delivered walker parked at %d, target %d", policy, w.At(), res.Target)
			}
			if extra := w.Step(); extra {
				t.Fatal("Step after Done must return false")
			}
		}
	}
}

// TestWalkerBornDelivered covers the degenerate search whose source is
// already a member of the target set.
func TestWalkerBornDelivered(t *testing.T) {
	g := walkGraph(t, 64, 5, 9, 0)
	r := New(g, Options{TracePath: true})
	w, err := r.Walker(rng.New(1), 5, []metric.Point{5, 20})
	if err != nil {
		t.Fatal(err)
	}
	if !w.Done() || !w.Result().Delivered || w.Result().Target != 5 || w.Result().Hops != 0 {
		t.Fatalf("walker from target not born delivered: %+v", w.Result())
	}
	if w.Step() {
		t.Fatal("born-delivered walker must not step")
	}
}

// TestWalkerErrors mirrors Route's error cases at creation time.
func TestWalkerErrors(t *testing.T) {
	g := walkGraph(t, 64, 5, 11, 0)
	g.Fail(metric.Point(10))
	torus, err := metric.NewTorus(8, 2)
	if err != nil {
		t.Fatal(err)
	}
	tg, err := graph.BuildIdeal(torus, graph.PaperConfigFor(torus, 3), rng.New(12))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name    string
		g       *graph.Graph
		opt     Options
		from    metric.Point
		targets []metric.Point
	}{
		{"dead origin", g, Options{}, 10, []metric.Point{3}},
		{"dead target", g, Options{}, 3, []metric.Point{10}},
		{"empty target set", g, Options{}, 3, nil},
		// A torus has no orientation for one-sided greedy to keep.
		{"one-sided on a torus", tg, Options{Sidedness: OneSided}, 0, []metric.Point{27}},
	} {
		if _, err := New(c.g, c.opt).Walker(rng.New(1), c.from, c.targets); err == nil {
			t.Errorf("%s accepted", c.name)
		}
	}
}
