package graph

import (
	"math"
	"testing"

	"repro/internal/mathx"
	"repro/internal/metric"
	"repro/internal/rng"
)

func TestPaperConfig(t *testing.T) {
	cfg := PaperConfig(7)
	if cfg.Links != 7 || cfg.Exponent != 1 {
		t.Errorf("PaperConfig = %+v", cfg)
	}
	if err := cfg.Validate(); err != nil {
		t.Error(err)
	}
	if err := (BuildConfig{Links: -1}).Validate(); err == nil {
		t.Error("negative links should fail validation")
	}
}

func TestBuildIdealDegree(t *testing.T) {
	src := rng.New(1)
	g, err := BuildIdeal(mustRing(t, 256), PaperConfig(5), src)
	if err != nil {
		t.Fatal(err)
	}
	for p := 0; p < g.Size(); p++ {
		if got := len(g.Long(metric.Point(p))); got != 5 {
			t.Fatalf("node %d has %d long links, want 5", p, got)
		}
		for _, lk := range g.Long(metric.Point(p)) {
			if lk.To == metric.Point(p) {
				t.Fatalf("self link at %d", p)
			}
			if !lk.Up {
				t.Fatalf("fresh link should be up")
			}
		}
	}
}

func TestBuildIdealRejectsBadConfig(t *testing.T) {
	if _, err := BuildIdeal(mustRing(t, 8), BuildConfig{Links: -2}, rng.New(1)); err == nil {
		t.Error("invalid config should error")
	}
}

func TestBuildIdealZeroLinks(t *testing.T) {
	g, err := BuildIdeal(mustRing(t, 8), BuildConfig{Links: 0, Exponent: 1}, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if g.LongLinkCount() != 0 {
		t.Error("zero-link build should have no long links")
	}
}

// The headline invariant of the construction: link lengths follow the
// inverse power law with exponent 1, i.e. P(d) ≈ 1/(d·H_max).
func TestBuildIdealLinkLengthDistribution(t *testing.T) {
	const n = 1 << 12
	src := rng.New(42)
	g, err := BuildIdeal(mustRing(t, n), PaperConfig(8), src)
	if err != nil {
		t.Fatal(err)
	}
	h := g.LinkLengthHistogram()
	maxD := (n - 1) / 2
	hmax := mathx.Harmonic(maxD)
	for _, d := range []int{1, 2, 4, 8, 32, 128} {
		want := 1 / (float64(d) * hmax)
		got := h.Probability(d - 1)
		if math.Abs(got-want) > want/3+0.002 {
			t.Errorf("P(len=%d) = %v, want ≈ %v", d, got, want)
		}
	}
}

func TestBuildIdealLineRespectsBoundaries(t *testing.T) {
	src := rng.New(7)
	g, err := BuildIdeal(mustLine(t, 128), PaperConfig(4), src)
	if err != nil {
		t.Fatal(err)
	}
	for p := 0; p < g.Size(); p++ {
		for _, lk := range g.Long(metric.Point(p)) {
			if !g.Space().Contains(lk.To) {
				t.Fatalf("link from %d leaves the line: %d", p, lk.To)
			}
		}
	}
}

func TestBuildIdealLineBoundaryNodeLinks(t *testing.T) {
	// Node 0 of a line can only link rightward.
	src := rng.New(9)
	g, err := BuildIdeal(mustLine(t, 64), PaperConfig(6), src)
	if err != nil {
		t.Fatal(err)
	}
	for _, lk := range g.Long(0) {
		if lk.To <= 0 {
			t.Fatalf("node 0 linked to %d", lk.To)
		}
	}
	for _, lk := range g.Long(63) {
		if lk.To >= 63 {
			t.Fatalf("node 63 linked to %d", lk.To)
		}
	}
}

func TestBuildIdealWithPresenceLinksOnlyExisting(t *testing.T) {
	const n = 256
	src := rng.New(3)
	present := make([]bool, n)
	for i := range present {
		present[i] = src.Bool(0.5)
	}
	present[0] = true // ensure at least one
	g, err := BuildIdealWithPresence(mustRing(t, n), PaperConfig(4), present, src)
	if err != nil {
		t.Fatal(err)
	}
	for p := 0; p < n; p++ {
		if !g.Exists(metric.Point(p)) {
			if len(g.Long(metric.Point(p))) != 0 {
				t.Fatalf("absent point %d has links", p)
			}
			continue
		}
		for _, lk := range g.Long(metric.Point(p)) {
			if !g.Exists(lk.To) {
				t.Fatalf("link from %d to absent point %d", p, lk.To)
			}
		}
	}
}

func TestBuildIdealWithPresenceValidates(t *testing.T) {
	if _, err := BuildIdealWithPresence(mustRing(t, 8), PaperConfig(2), make([]bool, 4), rng.New(1)); err == nil {
		t.Error("presence length mismatch should error")
	}
}

func TestBuildDeterministicDigits(t *testing.T) {
	const n, b = 64, 2
	g, err := BuildDeterministic(mustRing(t, n), b)
	if err != nil {
		t.Fatal(err)
	}
	// Base 2: distances 1,2,4,8,16,32 in both directions; on a ring of
	// 64, ±32 coincide. Every node must reach points at powers of two.
	want := map[int]bool{1: false, 2: false, 4: false, 8: false, 16: false, 32: false}
	for _, lk := range g.Long(0) {
		d := g.Space().Distance(0, lk.To)
		if _, ok := want[d]; ok {
			want[d] = true
		}
	}
	for d, seen := range want {
		if !seen {
			t.Errorf("node 0 missing link at distance %d", d)
		}
	}
}

func TestBuildDeterministicBaseValidation(t *testing.T) {
	if _, err := BuildDeterministic(mustRing(t, 8), 1); err == nil {
		t.Error("base 1 should error")
	}
	if _, err := BuildDeterministicPowers(mustRing(t, 8), 0); err == nil {
		t.Error("base 0 should error")
	}
}

func TestBuildDeterministicPowers(t *testing.T) {
	const n, b = 81, 3
	g, err := BuildDeterministicPowers(mustRing(t, n), b)
	if err != nil {
		t.Fatal(err)
	}
	dists := map[int]bool{}
	for _, lk := range g.Long(0) {
		dists[g.Space().Distance(0, lk.To)] = true
	}
	for _, d := range []int{1, 3, 9, 27} {
		if !dists[d] {
			t.Errorf("missing power-of-%d link at distance %d", b, d)
		}
	}
}

func TestBuildDeterministicLine(t *testing.T) {
	g, err := BuildDeterministic(mustLine(t, 32), 2)
	if err != nil {
		t.Fatal(err)
	}
	// Boundary node 0 has no leftward links.
	for _, lk := range g.Long(0) {
		if lk.To < 0 || lk.To > 31 {
			t.Fatalf("line link out of range: %d", lk.To)
		}
	}
}

func TestBuildIdealUniformExponent(t *testing.T) {
	// Exponent 0 = uniform link lengths: long links should NOT
	// concentrate at short distances.
	const n = 1 << 10
	g, err := BuildIdeal(mustRing(t, n), BuildConfig{Links: 8, Exponent: 0}, rng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	h := g.LinkLengthHistogram()
	short := float64(h.Count(0)) / float64(h.Total()) // P(len=1)
	if short > 0.01 {
		t.Errorf("uniform exponent should spread mass; P(len=1) = %v", short)
	}
}

func TestBuildIdealExponentTwoConcentrates(t *testing.T) {
	const n = 1 << 10
	g2, err := BuildIdeal(mustRing(t, n), BuildConfig{Links: 8, Exponent: 2}, rng.New(12))
	if err != nil {
		t.Fatal(err)
	}
	g1, err := BuildIdeal(mustRing(t, n), PaperConfig(8), rng.New(12))
	if err != nil {
		t.Fatal(err)
	}
	p2 := float64(g2.LinkLengthHistogram().Count(0)) / float64(g2.LinkLengthHistogram().Total())
	p1 := float64(g1.LinkLengthHistogram().Count(0)) / float64(g1.LinkLengthHistogram().Total())
	if p2 <= p1 {
		t.Errorf("exponent 2 should concentrate more at distance 1: p2=%v p1=%v", p2, p1)
	}
}

func BenchmarkBuildIdeal(b *testing.B) {
	sp := mustRing(b, 1<<14)
	cfg := PaperConfig(14)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BuildIdeal(sp, cfg, rng.New(uint64(i))); err != nil {
			b.Fatal(err)
		}
	}
}
