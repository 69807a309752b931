package baseline

import (
	"math"
	"testing"

	"repro/internal/graph"
	"repro/internal/metric"
	"repro/internal/rng"
	"repro/internal/route"
	"repro/internal/sim"
)

func TestChordValidation(t *testing.T) {
	if _, err := NewChord(0); err == nil {
		t.Error("m=0 should error")
	}
	if _, err := NewChord(31); err == nil {
		t.Error("m=31 should error")
	}
}

func TestChordDelivers(t *testing.T) {
	c, err := NewChord(10) // 1024 ids
	if err != nil {
		t.Fatal(err)
	}
	if c.Name() != "chord" || c.Nodes() != 1024 {
		t.Error("accessors wrong")
	}
	src := rng.New(1)
	for i := 0; i < 200; i++ {
		from := src.Intn(1024)
		to := src.Intn(1024)
		res := c.Route(src, from, to)
		if !res.Delivered {
			t.Fatalf("chord failed %d->%d", from, to)
		}
		if res.Hops > 10 {
			t.Fatalf("chord took %d hops, max is m=10", res.Hops)
		}
	}
}

func TestChordHopsAreBitCount(t *testing.T) {
	// On a fully populated circle, hops = popcount of the clockwise
	// distance.
	c, err := NewChord(8)
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(2)
	res := c.Route(src, 0, 255) // distance 255 = 8 ones
	if res.Hops != 8 {
		t.Errorf("hops to 255 = %d, want 8", res.Hops)
	}
	res = c.Route(src, 0, 128) // one bit
	if res.Hops != 1 {
		t.Errorf("hops to 128 = %d, want 1", res.Hops)
	}
	res = c.Route(src, 5, 5)
	if !res.Delivered || res.Hops != 0 {
		t.Errorf("self route = %+v", res)
	}
}

// gridNetwork is a §3 grid system on the paper's own code: the 2-D
// torus of the given side with links long links per node drawn at
// exponent 2 (Kleinberg's small world; links = 0 is CAN's bare grid),
// routed greedily over each node's own links.
func gridNetwork(t *testing.T, side, links int, src *rng.Source) (*graph.Graph, *route.Router) {
	t.Helper()
	torus, err := metric.NewTorus(side, 2)
	if err != nil {
		t.Fatal(err)
	}
	g, err := graph.BuildIdeal(torus, graph.PaperConfigFor(torus, links), src)
	if err != nil {
		t.Fatal(err)
	}
	return g, route.New(g, route.Options{DirectedOnly: true})
}

func TestKleinbergValidation(t *testing.T) {
	if _, err := metric.NewTorus(0, 2); err == nil {
		t.Error("side=0 should error")
	}
	torus, err := metric.NewTorus(8, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := graph.BuildIdeal(torus, graph.BuildConfig{Links: -1, Exponent: 2}, rng.New(1)); err == nil {
		t.Error("negative q should error")
	}
}

func TestKleinbergDelivers(t *testing.T) {
	g, r := gridNetwork(t, 32, 1, rng.New(3))
	if g.Size() != 1024 || g.LongLinkCount() != 1024 {
		t.Errorf("%d nodes with %d long links, want 1024 of each", g.Size(), g.LongLinkCount())
	}
	src := rng.New(4)
	var totalHops int
	const searches = 200
	for i := 0; i < searches; i++ {
		from := metric.Point(src.Intn(1024))
		to := metric.Point(src.Intn(1024))
		res, err := r.Route(src, from, to)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Delivered {
			t.Fatalf("kleinberg failed %d->%d (grid links guarantee progress)", from, to)
		}
		totalHops += res.Hops
	}
	mean := float64(totalHops) / searches
	// Grid diameter is 32; small-world links should beat it clearly.
	if mean > 20 {
		t.Errorf("kleinberg mean hops = %v, want well under grid diameter", mean)
	}
}

func TestCANDelivers(t *testing.T) {
	g, r := gridNetwork(t, 16, 0, rng.New(5))
	if g.Size() != 256 || g.LongLinkCount() != 0 {
		t.Errorf("%d zones with %d long links, want 256 and none", g.Size(), g.LongLinkCount())
	}
	src := rng.New(5)
	for i := 0; i < 100; i++ {
		from := metric.Point(src.Intn(256))
		to := metric.Point(src.Intn(256))
		res, err := r.Route(src, from, to)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Delivered {
			t.Fatalf("CAN failed %d->%d", from, to)
		}
		if res.Hops > 16 { // torus L1 diameter = side/2 + side/2
			t.Fatalf("CAN took %d hops on a 16x16 torus", res.Hops)
		}
	}
	// A one-zone CAN has no pair of distinct endpoints to look up.
	one, oneR := gridNetwork(t, 1, 0, rng.New(5))
	if _, err := sim.MeasureSearches(one, oneR, rng.New(5), 1); err == nil {
		t.Error("side=1 should error")
	}
}

func TestCANHopsEqualsManhattan(t *testing.T) {
	_, r := gridNetwork(t, 8, 0, rng.New(6))
	res, err := r.Route(rng.New(6), 0, 3) // (0,0)->(0,3): distance 3
	if err != nil {
		t.Fatal(err)
	}
	if !res.Delivered || res.Hops != 3 {
		t.Errorf("delivered=%v in %d hops, want 3", res.Delivered, res.Hops)
	}
}

func TestFloodValidation(t *testing.T) {
	if _, err := NewFlood(1, 4, 5, rng.New(1)); err == nil {
		t.Error("n=1 should error")
	}
	if _, err := NewFlood(10, 1, 5, rng.New(1)); err == nil {
		t.Error("degree=1 should error")
	}
	if _, err := NewFlood(10, 4, 0, rng.New(1)); err == nil {
		t.Error("ttl=0 should error")
	}
}

func TestFloodFindsWithGenerousTTL(t *testing.T) {
	f, err := NewFlood(500, 6, 20, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	if f.Name() != "flood" || f.Nodes() != 500 || f.ttl != 20 {
		t.Error("accessors wrong")
	}
	src := rng.New(8)
	found := 0
	var messages int
	for i := 0; i < 50; i++ {
		from := src.Intn(500)
		to := src.Intn(500)
		res := f.Route(src, from, to)
		if res.Delivered {
			found++
			messages += res.Messages
		}
	}
	if found < 48 {
		t.Errorf("flood with TTL 20 on 500 nodes found only %d/50", found)
	}
	// The pathology the paper points out: flooding touches a large
	// fraction of the network per search.
	if mean := float64(messages) / float64(found); mean < 50 {
		t.Errorf("flooding should be expensive, mean messages = %v", mean)
	}
}

func TestFloodTTLCutsOff(t *testing.T) {
	f, err := NewFlood(1000, 4, 1, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(10)
	failures := 0
	for i := 0; i < 100; i++ {
		from := src.Intn(1000)
		to := src.Intn(1000)
		if from == to {
			continue
		}
		if !f.Route(src, from, to).Delivered {
			failures++
		}
	}
	if failures < 80 {
		t.Errorf("TTL=1 should fail most searches on 1000 nodes, failed %d", failures)
	}
}

func TestFloodSelfRoute(t *testing.T) {
	f, err := NewFlood(16, 4, 3, rng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	res := f.Route(rng.New(1), 3, 3)
	if !res.Delivered || res.Hops != 0 {
		t.Errorf("self route = %+v", res)
	}
}

func TestCentral(t *testing.T) {
	c, err := NewCentral(100)
	if err != nil {
		t.Fatal(err)
	}
	if c.Name() != "central" || c.Nodes() != 100 {
		t.Error("accessors wrong")
	}
	res := c.Route(rng.New(1), 1, 2)
	if !res.Delivered || res.Hops != 2 || res.Messages != 2 {
		t.Errorf("central route = %+v", res)
	}
	c.ServerUp = false
	if c.Route(rng.New(1), 1, 2).Delivered {
		t.Error("server-down lookup must fail")
	}
	if _, err := NewCentral(1); err == nil {
		t.Error("n=1 should error")
	}
}

// Comparative shape check across systems the paper discusses: Chord and
// Kleinberg scale logarithmically, CAN scales like √n, flooding costs
// explode. This mirrors the qualitative claims of §3.
func TestBaselineScalingShape(t *testing.T) {
	src := rng.New(12)
	chord, err := NewChord(14) // 16384 ids
	if err != nil {
		t.Fatal(err)
	}
	can, canR := gridNetwork(t, 128, 0, src) // 16384 zones
	var total, n int
	for i := 0; i < 100; i++ {
		from := src.Intn(chord.Nodes())
		to := src.Intn(chord.Nodes())
		if res := chord.Route(src, from, to); res.Delivered {
			total += res.Hops
			n++
		}
	}
	ch := math.Inf(1)
	if n > 0 {
		ch = float64(total) / float64(n)
	}
	stats, err := sim.MeasureSearches(can, canR, src, 100)
	if err != nil {
		t.Fatal(err)
	}
	ca := stats.MeanHops()
	if ch >= ca {
		t.Errorf("chord (%v hops) should beat CAN (%v hops) at n=16384", ch, ca)
	}
	if ca < 20 {
		t.Errorf("CAN mean hops = %v, want Θ(√n) ≈ 64 on the torus", ca)
	}
}
