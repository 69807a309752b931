package graph_test

import (
	"slices"
	"testing"

	"repro/internal/failure"
	"repro/internal/graph"
	"repro/internal/metric"
	"repro/internal/rng"
)

// TestRestoreLinksKeepsBuildOrder: failing links and then RestoreLinks
// leaves a built graph as it was, the reverse index exact and every
// point's neighbour sequence — in-links in their as-built order, the
// routing tie order — equal to a fresh build's. Raising the same links
// one at a time with SetLongUp(…, true) does not: each comes back at
// the end of its target's index, and the test requires that the
// comparison sees it.
func TestRestoreLinksKeepsBuildOrder(t *testing.T) {
	ring, err := metric.NewRing(256)
	if err != nil {
		t.Fatal(err)
	}
	torus, err := metric.NewTorus(12, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name  string
		build func() (*graph.Graph, error)
	}{
		{"ideal ring", func() (*graph.Graph, error) {
			return graph.BuildIdeal(ring, graph.PaperConfigFor(ring, 4), rng.New(1))
		}},
		{"ideal torus2d", func() (*graph.Graph, error) {
			return graph.BuildIdeal(torus, graph.PaperConfigFor(torus, 3), rng.New(2))
		}},
		{"powers of 2", func() (*graph.Graph, error) { return graph.BuildDeterministicPowers(ring, 2) }},
	} {
		fresh, err := c.build()
		if err != nil {
			t.Fatal(err)
		}
		// differs reports whether g's links or neighbour order differ
		// from the fresh build's at any point.
		differs := func(g *graph.Graph) bool {
			for i := 0; i < g.Size(); i++ {
				p := metric.Point(i)
				if !slices.Equal(g.Long(p), fresh.Long(p)) ||
					!slices.Equal(g.AppendNeighbors(nil, p, true), fresh.AppendNeighbors(nil, p, true)) {
					return true
				}
			}
			return false
		}
		damaged := func() (*graph.Graph, int) {
			g, err := c.build()
			if err != nil {
				t.Fatal(err)
			}
			down, err := failure.FailLinks(g, 0.5, rng.New(3))
			if err != nil {
				t.Fatal(err)
			}
			return g, down
		}

		g, down := damaged()
		if raised := g.RestoreLinks(); raised != down || down == 0 {
			t.Errorf("%s: FailLinks took %d links down, RestoreLinks raised %d", c.name, down, raised)
		}
		if err := g.CheckReverseIndex(); err != nil {
			t.Errorf("%s: %v", c.name, err)
		}
		if differs(g) {
			t.Errorf("%s: restored graph differs from a fresh build", c.name)
		}

		g, _ = damaged()
		for i := 0; i < g.Size(); i++ {
			for slot := range g.Long(metric.Point(i)) {
				if err := g.SetLongUp(metric.Point(i), slot, true); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := g.CheckReverseIndex(); err != nil {
			t.Errorf("%s: one at a time: %v", c.name, err)
		}
		if !differs(g) {
			t.Errorf("%s: raising links one at a time matched a fresh build; the comparison cannot see the tie order", c.name)
		}
	}
}
