// Package core holds end-to-end scenarios for the paper's system, run on
// the calls every experiment makes: build a network (graph.BuildIdeal,
// or the §5 construct.Builder), route searches between random live
// nodes, crash nodes, and change membership. The directory has tests
// only; the library surface is graph, construct, route and failure.
package core

import (
	"testing"

	"repro/internal/construct"
	"repro/internal/failure"
	"repro/internal/graph"
	"repro/internal/mathx"
	"repro/internal/metric"
	"repro/internal/rng"
	"repro/internal/route"
)

// ideal samples a network from the paper's distribution (exponent =
// dimension) with stream 1 of the root; searches draw from the root and
// failures from stream 3.
func ideal(t *testing.T, space metric.Space, links int, seed uint64) (*graph.Graph, *rng.Source) {
	t.Helper()
	root := rng.New(seed)
	g, err := graph.BuildIdeal(space, graph.PaperConfigFor(space, links), root.Derive(1))
	if err != nil {
		t.Fatal(err)
	}
	return g, root
}

// grown builds a network with the §5 arrival protocol, nodes arriving in
// the order stream 2 of the root draws.
func grown(t *testing.T, space metric.Space, cfg construct.Config, seed uint64) (*construct.Builder, *rng.Source) {
	t.Helper()
	root := rng.New(seed)
	b, err := construct.NewBuilder(space, cfg, root.Derive(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range root.Derive(2).Perm(space.Size()) {
		if err := b.Add(metric.Point(i)); err != nil {
			t.Fatal(err)
		}
	}
	return b, root
}

// randomSearch is the §6 workload: a search between two random live
// nodes, delivered in zero hops when both draws pick the same node.
func randomSearch(g *graph.Graph, src *rng.Source, opt route.Options) (route.Result, error) {
	from, _ := g.RandomAlive(src)
	to, _ := g.RandomAlive(src)
	if from == to {
		return route.Result{Delivered: true}, nil
	}
	return route.New(g, opt).Route(src, from, to)
}

func ring(t *testing.T, n int) metric.Space {
	t.Helper()
	s, err := metric.NewRing(n)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func torus(t *testing.T, side, dim int) metric.Space {
	t.Helper()
	s, err := metric.NewTorus(side, dim)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestIdealNetworkSearch(t *testing.T) {
	g, root := ideal(t, ring(t, 1<<10), mathx.ILog2(1<<10), 1)
	res, err := route.New(g, route.Options{}).Route(root, 3, 700)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Delivered {
		t.Error("failure-free search should deliver")
	}
	if res.Hops <= 0 || res.Hops > 100 {
		t.Errorf("hops = %d", res.Hops)
	}
	if g.Size() != 1024 || g.AliveCount() != 1024 {
		t.Errorf("size %d, alive %d", g.Size(), g.AliveCount())
	}
	if g.AvgOutDegree() != 10 {
		t.Errorf("mean degree = %v, want lg 1024 = 10", g.AvgOutDegree())
	}
}

func TestRandomSearchWorkload(t *testing.T) {
	g, root := ideal(t, ring(t, 512), mathx.ILog2(512), 2)
	for i := 0; i < 50; i++ {
		res, err := randomSearch(g, root, route.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Delivered {
			t.Fatal("failure-free random search failed")
		}
	}
}

func TestLineSpace(t *testing.T) {
	line, err := metric.NewLine(256)
	if err != nil {
		t.Fatal(err)
	}
	g, root := ideal(t, line, mathx.ILog2(256), 3)
	res, err := route.New(g, route.Options{Sidedness: route.OneSided}).Route(root, 0, 255)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Delivered {
		t.Error("line one-sided search failed")
	}
}

func TestFailureInjection(t *testing.T) {
	g, root := ideal(t, ring(t, 1000), mathx.ILog2(1000), 4)
	crashed, err := failure.FailNodesFraction(g, 0.3, root.Derive(3))
	if err != nil {
		t.Fatal(err)
	}
	if crashed != 300 || g.AliveCount() != 700 {
		t.Errorf("crashed %d, alive %d", crashed, g.AliveCount())
	}
	// Searches still mostly work with backtracking.
	delivered := 0
	for i := 0; i < 50; i++ {
		res, err := randomSearch(g, root, route.Options{DeadEnd: route.Backtrack})
		if err != nil {
			t.Fatal(err)
		}
		if res.Delivered {
			delivered++
		}
	}
	if delivered < 25 {
		t.Errorf("only %d/50 delivered under moderate damage", delivered)
	}
}

func TestHeuristicNetworkChurn(t *testing.T) {
	b, root := grown(t, ring(t, 256), construct.Config{Links: mathx.ILog2(256)}, 5)
	g := b.Graph()
	if g.AliveCount() != 256 {
		t.Fatalf("alive = %d", g.AliveCount())
	}
	if err := b.Remove(17); err != nil {
		t.Fatal(err)
	}
	if g.AliveCount() != 255 {
		t.Errorf("alive after removal = %d", g.AliveCount())
	}
	if err := b.Add(17); err != nil {
		t.Fatal(err)
	}
	if g.AliveCount() != 256 {
		t.Errorf("alive after re-add = %d", g.AliveCount())
	}
	res, err := randomSearch(g, root, route.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Delivered {
		t.Error("search over churned heuristic network failed")
	}
}

func TestHeuristicReplacementStrategy(t *testing.T) {
	b, root := grown(t, ring(t, 128), construct.Config{Links: mathx.ILog2(128), Strategy: construct.Oldest}, 6)
	res, err := randomSearch(b.Graph(), root, route.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Delivered {
		t.Error("search over an Oldest-replacement network failed")
	}
}

func TestDeterministicReproducibility(t *testing.T) {
	type snapshot struct {
		alive, links int
		res          route.Result
	}
	build := func() snapshot {
		g, root := ideal(t, ring(t, 512), mathx.ILog2(512), 99)
		res, err := route.New(g, route.Options{}).Route(root, 1, 400)
		if err != nil {
			t.Fatal(err)
		}
		return snapshot{g.AliveCount(), g.LongLinkCount(), res}
	}
	s1, s2 := build(), build()
	if s1.alive != s2.alive || s1.links != s2.links || s1.res.Hops != s2.res.Hops || s1.res.Delivered != s2.res.Delivered {
		t.Errorf("same seed should rebuild the identical network: %+v vs %+v", s1, s2)
	}
}

func TestTorusNetworkEndToEnd(t *testing.T) {
	space := torus(t, 24, 2)
	g, root := ideal(t, space, 4, 5)
	if space.Dim() != 2 || space.Name() != "torus2d" {
		t.Errorf("space = %s dim %d", space.Name(), space.Dim())
	}
	if g.Size() != 576 {
		t.Errorf("nodes = %d, want 576", g.Size())
	}
	// Healthy torus searches always deliver.
	for i := 0; i < 50; i++ {
		res, err := randomSearch(g, root, route.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Delivered {
			t.Fatal("failure-free 2-D search failed")
		}
	}
	// The §6 damage model and recovery strategies run unchanged.
	if _, err := failure.FailNodesFraction(g, 0.3, root.Derive(3)); err != nil {
		t.Fatal(err)
	}
	delivered := 0
	for i := 0; i < 50; i++ {
		res, err := randomSearch(g, root, route.Options{DeadEnd: route.Backtrack})
		if err != nil {
			t.Fatal(err)
		}
		if res.Delivered {
			delivered++
		}
	}
	if delivered < 40 {
		t.Errorf("backtracking delivered only %d/50 after 30%% failures", delivered)
	}
	// One-sided routing is undefined on a torus and must error.
	if _, err := randomSearch(g, root, route.Options{Sidedness: route.OneSided}); err == nil {
		t.Error("one-sided routing on a torus should error")
	}
}

func TestTorusHeuristicConstruction(t *testing.T) {
	b, root := grown(t, torus(t, 12, 2), construct.Config{Links: 3}, 9)
	res, err := randomSearch(b.Graph(), root, route.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Delivered {
		t.Error("heuristic 2-D network failed a healthy search")
	}
	// Membership changes run through the same §5 protocol.
	if err := b.Remove(7); err != nil {
		t.Fatal(err)
	}
	if err := b.Add(7); err != nil {
		t.Fatal(err)
	}
}
