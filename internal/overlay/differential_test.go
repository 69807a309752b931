package overlay

import (
	"context"
	"testing"

	"repro/internal/failure"
	"repro/internal/graph"
	"repro/internal/metric"
	"repro/internal/rng"
	"repro/internal/route"
	"repro/internal/transport"
)

// The overlay's greedy pick is the simulator's: on the same links —
// one Node per live point of a graph.BuildIdeal ring, short links its
// ShortNeighbor(∓1), long links its up links in slot order — Lookup
// ends at the node where route.Router{DirectedOnly} ends, healthy and
// with a quarter of the ring failed. The engine's ModeLive drives the
// same Walker.Step, so this ties the message-passing shell to the
// measured engine without either importing the other. Hops agree on
// the healthy ring; on the damaged one the overlay pays one extra per
// dead node it probed, which the router's local liveness knowledge
// filters for free.
func TestLookupMatchesRouter(t *testing.T) {
	const n, links, pairs = 256, 4, 1000
	for _, failed := range []float64{0, 0.25} {
		cfg := testConfig(t, n, links)
		g, err := graph.BuildIdeal(cfg.Ring, graph.PaperConfig(links), rng.New(17))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := failure.FailNodesFraction(g, failed, rng.New(18)); err != nil {
			t.Fatal(err)
		}
		tr := transport.NewInMem(0)
		nodes := map[metric.Point]*Node{}
		var live []metric.Point
		for i := 0; i < n; i++ {
			p := metric.Point(i)
			if !g.Alive(p) {
				continue
			}
			node, err := NewNode(p, cfg, tr)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(node.Close)
			node.left, _ = g.ShortNeighbor(p, -1)
			node.right, _ = g.ShortNeighbor(p, +1)
			for _, lk := range g.Long(p) {
				if lk.Up {
					node.long = append(node.long, lk.To)
				}
			}
			nodes[p] = node
			live = append(live, p)
		}

		router := route.New(g, route.Options{DirectedOnly: true, TracePath: true})
		src := rng.New(19)
		ctx := context.Background()
		surplus := 0
		for i := 0; i < pairs; i++ {
			from, to := live[src.Intn(len(live))], live[src.Intn(len(live))]
			want, err := router.Route(src, from, to)
			if err != nil {
				t.Fatal(err)
			}
			owner, hops, err := nodes[from].Lookup(ctx, to)
			if err != nil {
				t.Fatalf("failed=%v: lookup %d→%d: %v", failed, from, to, err)
			}
			if end := want.Path[len(want.Path)-1]; owner != end {
				t.Fatalf("failed=%v: %d→%d: overlay ends at %d, router at %d (path %v)",
					failed, from, to, owner, end, want.Path)
			}
			if want.Delivered != (owner == to) {
				t.Errorf("failed=%v: %d→%d: router delivered=%v, overlay owner %d",
					failed, from, to, want.Delivered, owner)
			}
			if hops < want.Hops || (failed == 0 && hops != want.Hops) {
				t.Errorf("failed=%v: %d→%d: overlay %d hops, router %d", failed, from, to, hops, want.Hops)
			}
			surplus += hops - want.Hops
		}
		if failed > 0 && surplus == 0 {
			t.Error("no lookup probed a dead node: the damaged case tested nothing")
		}
	}
}
