package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("seeds 1 and 2 produced %d equal values out of 100", same)
	}
}

func TestDeriveIndependence(t *testing.T) {
	parent := New(7)
	c1 := parent.Derive(1)
	c2 := parent.Derive(2)
	c1again := New(7).Derive(1)
	for i := 0; i < 100; i++ {
		if c1.Uint64() != c1again.Uint64() {
			t.Fatal("Derive is not deterministic")
		}
	}
	// Streams 1 and 2 should differ.
	c1 = New(7).Derive(1)
	same := 0
	for i := 0; i < 100; i++ {
		if c1.Uint64() == c2.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("derived streams 1 and 2 nearly identical (%d/100 equal)", same)
	}
}

// TestDeriveIntoMatchesDerive: a stream derived into caller-owned
// storage — fresh or already used — is the stream Derive returns, which
// is still the stream the pre-DeriveInto arithmetic (kept here as the
// reference) produced; and deriving leaves the parent untouched. The
// streams are the ones the engine uses: 0, 1, the first per-message
// stream 16, a message index past 2²⁰, and a stream beyond 32 bits.
func TestDeriveIntoMatchesDerive(t *testing.T) {
	reference := func(s *Source, stream uint64) *Source {
		x := s.s0 ^ rotl(s.s2, 17) ^ (stream * 0x9E3779B97F4A7C15)
		return New(splitmix64(&x))
	}
	used := New(99)
	for i := 0; i < 5; i++ {
		used.Uint64()
	}
	for _, parent := range []*Source{New(0), New(7), used} {
		var slot Source
		for _, stream := range []uint64{0, 1, 16, 16 + 1<<20, 1 << 40} {
			before := *parent
			want, viaDerive := reference(parent, stream), parent.Derive(stream)
			parent.DeriveInto(&slot, stream) // the slot still holds the previous stream's state
			if *parent != before {
				t.Fatalf("stream %d: deriving advanced the parent", stream)
			}
			for i := 0; i < 8; i++ {
				w, d, s := want.Uint64(), viaDerive.Uint64(), slot.Uint64()
				if d != w || s != w {
					t.Fatalf("stream %d output %d: reference %#x, Derive %#x, DeriveInto %#x", stream, i, w, d, s)
				}
			}
		}
	}
}

func TestIntnRange(t *testing.T) {
	s := New(3)
	for _, n := range []int{1, 2, 3, 10, 1000} {
		for i := 0; i < 200; i++ {
			v := s.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) should panic")
		}
	}()
	New(1).Intn(0)
}

func TestIntnUniformity(t *testing.T) {
	s := New(11)
	const n, draws = 8, 80000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[s.Intn(n)]++
	}
	want := float64(draws) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 4*math.Sqrt(want) {
			t.Errorf("bucket %d count %d deviates from %f", i, c, want)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	s := New(5)
	var sum float64
	const draws = 100000
	for i := 0; i < draws; i++ {
		v := s.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", v)
		}
		sum += v
	}
	if mean := sum / draws; math.Abs(mean-0.5) > 0.01 {
		t.Errorf("Float64 mean = %v, want ~0.5", mean)
	}
}

func TestBool(t *testing.T) {
	s := New(9)
	if s.Bool(0) || s.Bool(-1) {
		t.Error("Bool(<=0) must be false")
	}
	if !s.Bool(1) || !s.Bool(1.5) {
		t.Error("Bool(>=1) must be true")
	}
	hits := 0
	const draws = 50000
	for i := 0; i < draws; i++ {
		if s.Bool(0.3) {
			hits++
		}
	}
	if p := float64(hits) / draws; math.Abs(p-0.3) > 0.01 {
		t.Errorf("Bool(0.3) frequency = %v", p)
	}
}

func TestPermIsPermutation(t *testing.T) {
	f := func(seed uint64, nn uint8) bool {
		n := int(nn%64) + 1
		p := New(seed).Perm(n)
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPoissonMean(t *testing.T) {
	s := New(13)
	for _, lambda := range []float64{1, 5, 14, 50} {
		const draws = 20000
		var sum int
		for i := 0; i < draws; i++ {
			sum += s.Poisson(lambda)
		}
		mean := float64(sum) / draws
		if math.Abs(mean-lambda) > 4*math.Sqrt(lambda/draws)*math.Sqrt(lambda)+0.2 {
			t.Errorf("Poisson(%v) mean = %v", lambda, mean)
		}
	}
	if s.Poisson(0) != 0 || s.Poisson(-1) != 0 {
		t.Error("Poisson(<=0) must be 0")
	}
}

func TestNormFloat64Moments(t *testing.T) {
	s := New(17)
	const draws = 100000
	var sum, sum2 float64
	for i := 0; i < draws; i++ {
		v := s.NormFloat64()
		sum += v
		sum2 += v * v
	}
	mean := sum / draws
	variance := sum2/draws - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("normal mean = %v", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Errorf("normal variance = %v", variance)
	}
}
