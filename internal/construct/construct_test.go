package construct

import (
	"math"
	"testing"

	"repro/internal/mathx"
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

func TestConfigValidate(t *testing.T) {
	if err := (Config{Links: -1}).Validate(); err == nil {
		t.Error("negative links should error")
	}
	if err := (Config{Links: 3}).Validate(); err != nil {
		t.Error("zero strategy should default and validate:", err)
	}
	if err := (Config{Links: 3, Strategy: 99}).Validate(); err == nil {
		t.Error("unknown strategy should error")
	}
	if InverseDistance.String() != "inverse-distance" || Oldest.String() != "oldest-link" {
		t.Error("strategy names wrong")
	}
	if ReplacementStrategy(42).String() == "" {
		t.Error("unknown strategy should stringify")
	}
}

func TestBuilderFirstNode(t *testing.T) {
	b, err := NewBuilder(mustRing(t, 16), Config{Links: 3}, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Add(5); err != nil {
		t.Fatal(err)
	}
	if b.Size() != 1 {
		t.Errorf("size = %d", b.Size())
	}
	if got := len(b.Graph().Long(5)); got != 0 {
		t.Errorf("first node has %d links, want 0 (nobody to link to)", got)
	}
	if err := b.Add(5); err == nil {
		t.Error("duplicate Add should error")
	}
}

func TestBuilderSecondNodeLinks(t *testing.T) {
	b, err := NewBuilder(mustRing(t, 16), Config{Links: 3}, rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Add(0); err != nil {
		t.Fatal(err)
	}
	if err := b.Add(8); err != nil {
		t.Fatal(err)
	}
	// The newcomer must link to the only other node.
	for _, lk := range b.Graph().Long(8) {
		if lk.To != 0 {
			t.Errorf("link to %d, want 0", lk.To)
		}
	}
	if len(b.Graph().Long(8)) != 3 {
		t.Errorf("newcomer has %d links, want 3", len(b.Graph().Long(8)))
	}
}

func TestGrowFullOccupancy(t *testing.T) {
	const n, links = 512, 6
	g, err := Grow(mustRing(t, n), Config{Links: links}, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	if g.AliveCount() != n {
		t.Fatalf("alive = %d, want %d", g.AliveCount(), n)
	}
	// Every node has at most `links` outgoing links and most have all.
	short := 0
	for i := 0; i < n; i++ {
		l := len(g.Long(metric.Point(i)))
		if l > links {
			t.Fatalf("node %d has %d links, budget %d", i, l, links)
		}
		if l < links {
			short++
		}
	}
	if short > n/50 {
		t.Errorf("%d of %d nodes below link budget", short, n)
	}
	// All links point at existing nodes, never self.
	for i := 0; i < n; i++ {
		for _, lk := range g.Long(metric.Point(i)) {
			if lk.To == metric.Point(i) || !g.Exists(lk.To) {
				t.Fatalf("bad link %d -> %d", i, lk.To)
			}
		}
	}
}

// The central claim of §5 (Figure 5): the constructed network's
// link-length distribution tracks the ideal inverse power law with
// exponent 1 closely. The paper reports a maximum absolute error of
// roughly 0.022 at n=2^14; we check a scaled-down instance stays within
// a few times that.
func TestGrowDistributionTracksIdeal(t *testing.T) {
	if testing.Short() {
		t.Skip("distribution test needs a medium-size network")
	}
	const n, links = 1 << 11, 11
	g, err := Grow(mustRing(t, n), Config{Links: links}, rng.New(4))
	if err != nil {
		t.Fatal(err)
	}
	h := g.LinkLengthHistogram()
	maxD := (n - 1) / 2
	hm := mathx.Harmonic(maxD)
	var worst float64
	for d := 1; d <= maxD; d++ {
		ideal := 1 / (float64(d) * hm)
		got := h.Probability(d - 1)
		if e := math.Abs(got - ideal); e > worst {
			worst = e
		}
	}
	if worst > 0.08 {
		t.Errorf("max abs error vs ideal = %v, want < 0.08", worst)
	}
}

func TestRemoveRepairsLinks(t *testing.T) {
	const n, links = 256, 5
	b, err := NewBuilder(mustRing(t, n), Config{Links: links}, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range rng.New(6).Perm(n) {
		if err := b.Add(metric.Point(i)); err != nil {
			t.Fatal(err)
		}
	}
	victim := metric.Point(17)
	if err := b.Remove(victim); err != nil {
		t.Fatal(err)
	}
	g := b.Graph()
	if g.Exists(victim) {
		t.Fatal("removed node still exists")
	}
	// No link may still point at the departed node.
	for i := 0; i < n; i++ {
		for _, lk := range g.Long(metric.Point(i)) {
			if lk.To == victim {
				t.Fatalf("dangling link %d -> %d survived repair", i, victim)
			}
		}
	}
	if err := b.Remove(victim); err == nil {
		t.Error("double Remove should error")
	}
}

func TestChurnMaintainsIntegrity(t *testing.T) {
	const n, links = 128, 4
	src := rng.New(7)
	b, err := NewBuilder(mustRing(t, n), Config{Links: links}, src)
	if err != nil {
		t.Fatal(err)
	}
	present := map[metric.Point]bool{}
	// Seed half the ring.
	for _, i := range src.Perm(n)[:n/2] {
		if err := b.Add(metric.Point(i)); err != nil {
			t.Fatal(err)
		}
		present[metric.Point(i)] = true
	}
	// Churn: random arrivals and departures.
	for step := 0; step < 300; step++ {
		p := metric.Point(src.Intn(n))
		if present[p] {
			if len(present) > 1 {
				if err := b.Remove(p); err != nil {
					t.Fatal(err)
				}
				delete(present, p)
			}
		} else {
			if err := b.Add(p); err != nil {
				t.Fatal(err)
			}
			present[p] = true
		}
	}
	g := b.Graph()
	if g.AliveCount() != len(present) {
		t.Fatalf("alive = %d, want %d", g.AliveCount(), len(present))
	}
	for i := 0; i < n; i++ {
		p := metric.Point(i)
		if g.Exists(p) != present[p] {
			t.Fatalf("presence mismatch at %d", i)
		}
		for _, lk := range g.Long(p) {
			if !present[lk.To] {
				t.Fatalf("link %d -> %d points at departed node", i, lk.To)
			}
		}
	}
}

func TestOldestStrategy(t *testing.T) {
	const n, links = 256, 4
	g, err := Grow(mustRing(t, n), Config{Links: links, Strategy: Oldest}, rng.New(8))
	if err != nil {
		t.Fatal(err)
	}
	if g.AliveCount() != n {
		t.Fatal("grow incomplete")
	}
	// Sanity: distribution still heavily favors short links.
	h := g.LinkLengthHistogram()
	if h.Probability(0) < h.Probability(9) {
		t.Error("oldest-link strategy lost the inverse-distance shape")
	}
}

// Routing over a constructed network must work end to end.
func TestGrowSupportsRouting(t *testing.T) {
	const n, links = 512, 9
	g, err := Grow(mustRing(t, n), Config{Links: links}, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	// Greedy progress via short links alone guarantees delivery.
	var hops int
	cur := metric.Point(3)
	to := metric.Point(400)
	sp := g.Space()
	for cur != to && hops < n {
		best := cur
		bestD := sp.Distance(cur, to)
		for _, q := range g.AppendNeighbors(nil, cur, true) {
			if d := sp.Distance(q, to); d < bestD {
				best, bestD = q, d
			}
		}
		if best == cur {
			t.Fatal("stuck in failure-free constructed network")
		}
		cur = best
		hops++
	}
	if cur != to {
		t.Fatal("never arrived")
	}
	if hops > 60 {
		t.Errorf("took %d hops; constructed network should be small-world", hops)
	}
}

func BenchmarkGrow(b *testing.B) {
	sp := mustRing(b, 1<<12)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Grow(sp, Config{Links: 12}, rng.New(uint64(i))); err != nil {
			b.Fatal(err)
		}
	}
}
