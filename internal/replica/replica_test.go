package replica

import (
	"reflect"
	"testing"

	"repro/internal/metric"
)

func mustRing(t *testing.T, n int) *metric.Ring {
	t.Helper()
	r, err := metric.NewRing(n)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func mustTorus(t *testing.T, side, dim int) *metric.Torus {
	t.Helper()
	s, err := metric.NewTorus(side, dim)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestOptionsValidate(t *testing.T) {
	for _, bad := range []Options{
		{K: -1},
		{Strategy: "nope"},
		{CacheThreshold: -2},
		{CacheCopies: -1},
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("Validate(%+v) accepted", bad)
		}
	}
	for _, good := range []Options{
		{},
		{K: 4},
		{K: 2, Strategy: "antipodal"},
		{CacheThreshold: 8, CacheCopies: 3},
	} {
		if err := good.Validate(); err != nil {
			t.Errorf("Validate(%+v) = %v", good, err)
		}
	}
	if (Options{}).Enabled() || (Options{K: 1}).Enabled() {
		t.Error("K <= 1 without cache must be disabled")
	}
	if !(Options{K: 2}).Enabled() || !(Options{CacheThreshold: 1}).Enabled() {
		t.Error("K > 1 or a cache threshold must enable replication")
	}
}

func TestHashSpreadDeterministicAndSeeded(t *testing.T) {
	ring := mustRing(t, 1024)
	a, err := NewPlacement(ring, Options{K: 4}, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewPlacement(ring, Options{K: 4}, 7)
	if err != nil {
		t.Fatal(err)
	}
	other, err := NewPlacement(ring, Options{K: 4}, 8)
	if err != nil {
		t.Fatal(err)
	}
	key := metric.Point(100)
	ta, tb := a.Targets(key), b.Targets(key)
	if !reflect.DeepEqual(ta, tb) {
		t.Errorf("same seed diverged: %v vs %v", ta, tb)
	}
	if len(ta) != 4 || ta[0] != key {
		t.Errorf("targets = %v, want primary-first length 4", ta)
	}
	for _, p := range ta {
		if !ring.Contains(p) {
			t.Errorf("replica %d outside the space", p)
		}
	}
	if reflect.DeepEqual(ta, other.Targets(key)) {
		t.Error("different seeds should spread replicas differently")
	}
}

func TestAntipodalRing(t *testing.T) {
	ring := mustRing(t, 1000)
	p, err := NewPlacement(ring, Options{K: 2, Strategy: "antipodal"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	got := p.Targets(40)
	want := []metric.Point{40, 540} // 40 + side/2
	if !reflect.DeepEqual(got, want) {
		t.Errorf("antipodal k=2 = %v, want %v", got, want)
	}
	// k=4: evenly spaced quarters.
	p4, err := NewPlacement(ring, Options{K: 4, Strategy: "antipodal"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	got4 := p4.Targets(0)
	want4 := []metric.Point{0, 250, 500, 750}
	if !reflect.DeepEqual(got4, want4) {
		t.Errorf("antipodal k=4 = %v, want %v", got4, want4)
	}
}

func TestAntipodalTorusIsTrueAntipode(t *testing.T) {
	torus := mustTorus(t, 16, 2)
	p, err := NewPlacement(torus, Options{K: 2, Strategy: "antipodal"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	key := torus.At(3, 5)
	got := p.Targets(key)
	if len(got) != 2 {
		t.Fatalf("targets = %v", got)
	}
	// Offset side/2 = 8 on both axes: the wrapped-L1 antipode.
	if want := torus.At(11, 13); got[1] != want {
		t.Errorf("antipode = %v, want %v", got[1], want)
	}
	if d := torus.Distance(key, got[1]); d != 16 {
		t.Errorf("antipode distance = %d, want side/2 per axis = 16", d)
	}
}

func TestAntipodalTorusLattice(t *testing.T) {
	// k = 4 on a 2-D torus forms the 2×2 quadrant sublattice — the
	// placement whose greedy watersheds split sources exactly evenly.
	torus := mustTorus(t, 32, 2)
	p, err := NewPlacement(torus, Options{K: 4, Strategy: "antipodal"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	key := torus.At(3, 5)
	got := p.Targets(key)
	want := []metric.Point{key, torus.At(19, 5), torus.At(3, 21), torus.At(19, 21)}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("lattice = %v, want %v", got, want)
	}
}

func TestAxisFactors(t *testing.T) {
	cases := []struct {
		k, dim int
		want   []int
	}{
		{4, 2, []int{2, 2}},
		{4, 1, []int{4}},
		{8, 2, []int{3, 3}},
		{3, 2, []int{2, 2}},
		{2, 3, []int{2, 1, 1}},
		{9, 2, []int{3, 3}},
	}
	for _, c := range cases {
		got := axisFactors(c.k, c.dim)
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("axisFactors(%d, %d) = %v, want %v", c.k, c.dim, got, c.want)
		}
		product := 1
		for _, f := range got {
			product *= f
		}
		if product < c.k {
			t.Errorf("axisFactors(%d, %d) product %d cannot host k replicas", c.k, c.dim, product)
		}
	}
}

func TestCacheOnPathPromotion(t *testing.T) {
	ring := mustRing(t, 256)
	p, err := NewPlacement(ring, Options{CacheThreshold: 3, CacheCopies: 2}, 1)
	if err != nil {
		t.Fatal(err)
	}
	key := metric.Point(50)
	if got := p.Targets(key); len(got) != 1 || got[0] != key {
		t.Fatalf("cache-only placement before observations = %v", got)
	}
	// Forwarder 49 appears twice, 51 once; threshold crossed on the
	// third observation.
	p.Observe(key, []metric.Point{10, 49, 50})
	p.Observe(key, []metric.Point{20, 51, 50})
	if p.CachedKeys() != 0 {
		t.Fatal("promoted before the threshold")
	}
	p.Observe(key, []metric.Point{30, 49, 50})
	if p.CachedKeys() != 1 || p.CachedCopies() != 2 {
		t.Fatalf("cached keys=%d copies=%d, want 1/2", p.CachedKeys(), p.CachedCopies())
	}
	// Hottest forwarder first; tie-breaks toward the lower point id.
	if got, want := p.CachedFor(key), []metric.Point{49, 51}; !reflect.DeepEqual(got, want) {
		t.Errorf("cached = %v, want %v", got, want)
	}
	targets := p.Targets(key)
	if want := []metric.Point{50, 49, 51}; !reflect.DeepEqual(targets, want) {
		t.Errorf("targets after promotion = %v, want %v", targets, want)
	}
	// A placement without a threshold ignores observations entirely.
	static, err := NewPlacement(ring, Options{K: 2}, 1)
	if err != nil {
		t.Fatal(err)
	}
	static.Observe(key, []metric.Point{10, 49, 50})
	if static.CachedKeys() != 0 {
		t.Error("static placement must ignore Observe")
	}
}

func TestCachePromotionSkipsStaticReplicas(t *testing.T) {
	ring := mustRing(t, 64)
	p, err := NewPlacement(ring, Options{K: 2, Strategy: "antipodal", CacheThreshold: 1, CacheCopies: 2}, 1)
	if err != nil {
		t.Fatal(err)
	}
	key := metric.Point(0)
	// The only observed forwarder is the key's own static replica (32):
	// promotion must not duplicate it.
	p.Observe(key, []metric.Point{5, 32, 0})
	if copies := p.CachedFor(key); len(copies) != 0 {
		t.Errorf("cached a static replica: %v", copies)
	}
}

func TestPlacementName(t *testing.T) {
	ring := mustRing(t, 64)
	p, _ := NewPlacement(ring, Options{K: 4}, 1)
	if p.Name() != "hash(k=4)" {
		t.Errorf("name = %q", p.Name())
	}
	c, _ := NewPlacement(ring, Options{K: 2, Strategy: "antipodal", CacheThreshold: 10}, 1)
	if c.Name() != "antipodal(k=2)+cache(t=10,c=2)" {
		t.Errorf("name = %q", c.Name())
	}
}

func TestHashSpreadSinglePointSpace(t *testing.T) {
	one := mustRing(t, 1)
	p, err := NewPlacement(one, Options{K: 3}, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Nothing but the key exists; the placement must still terminate.
	got := p.Targets(0)
	for _, q := range got {
		if q != 0 {
			t.Errorf("replica %d on a 1-point space", q)
		}
	}
}

// observeTimes feeds n observations of key through pred, crossing
// thresholds one hit at a time as the traffic pipeline does.
func observeTimes(p *Placement, key, pred metric.Point, n int) {
	for i := 0; i < n; i++ {
		p.Observe(key, []metric.Point{5, pred, key})
	}
}

// TestTargetsMemoTracksCacheChanges pins Targets' memo against the
// event that changes a key's cached copies: before promotion the set is
// the static one, after it the static replicas followed by the copies
// — while on either side repeated calls allocate nothing, a hot key's
// combined set included.
func TestTargetsMemoTracksCacheChanges(t *testing.T) {
	ring := mustRing(t, 64)
	p, err := NewPlacement(ring, Options{K: 2, CacheThreshold: 8, CacheCopies: 2}, 1)
	if err != nil {
		t.Fatal(err)
	}
	key := metric.Point(0)
	steady := func(stage string, want []metric.Point) {
		t.Helper()
		if got := p.Targets(key); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: targets = %v, want %v", stage, got, want)
		}
		if avg := testing.AllocsPerRun(100, func() { p.Targets(key) }); avg != 0 {
			t.Errorf("%s: Targets allocates %.1f per call, want 0", stage, avg)
		}
	}
	static := append([]metric.Point(nil), p.Targets(key)...)
	if len(static) != 2 || static[0] != key {
		t.Fatalf("static set = %v, want the key and one replica", static)
	}
	steady("before promotion", static)
	observeTimes(p, key, 7, 5)
	observeTimes(p, key, 9, 7) // 12 hits: promoted at 8
	cached := p.CachedFor(key)
	if len(cached) == 0 {
		t.Fatal("key not promoted")
	}
	steady("after promotion", append(append([]metric.Point(nil), static...), cached...))
}
