package mathx

import (
	"math"
	"testing"
	"testing/quick"
)

func TestHarmonicSmall(t *testing.T) {
	cases := []struct {
		n    int
		want float64
	}{
		{0, 0},
		{-5, 0},
		{1, 1},
		{2, 1.5},
		{3, 1.0 + 0.5 + 1.0/3.0},
		{10, 2.9289682539682538},
	}
	for _, c := range cases {
		if got := Harmonic(c.n); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Harmonic(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestHarmonicAsymptoticMatchesDirect(t *testing.T) {
	// The asymptotic branch kicks in at n=256; compare against a direct
	// sum at several sizes spanning the switch.
	for _, n := range []int{255, 256, 257, 1000, 10000} {
		direct := 0.0
		for i := 1; i <= n; i++ {
			direct += 1 / float64(i)
		}
		if got := Harmonic(n); math.Abs(got-direct) > 1e-9 {
			t.Errorf("Harmonic(%d) = %v, direct sum %v", n, got, direct)
		}
	}
}

// TestHarmonicTableMatchesDirectLoop pins the table branch bit for bit
// to the loop it replaced: every seeded graph depends on these values.
func TestHarmonicTableMatchesDirectLoop(t *testing.T) {
	for n := 1; n < 256; n++ {
		h := 0.0
		for i := 1; i <= n; i++ {
			h += 1 / float64(i)
		}
		if got := Harmonic(n); got != h {
			t.Errorf("Harmonic(%d) = %b, direct loop %b", n, got, h)
		}
	}
}

// TestHarmonicMonotone: rng's harmonic inversion (like the binary
// search before it) is only defined for a monotone predicate, so
// strict growth is checked exhaustively over every size a simulated
// network takes — the 255 → 256 table/asymptotic seam included — and
// around every power of two beyond.
func TestHarmonicMonotone(t *testing.T) {
	grows := func(m int) {
		if !(Harmonic(m+1) > Harmonic(m)) {
			t.Errorf("Harmonic(%d) = %v is not above Harmonic(%d) = %v", m+1, Harmonic(m+1), m, Harmonic(m))
		}
	}
	for m := 1; m <= 1<<17; m++ {
		grows(m)
	}
	for k := 18; k <= 40; k++ {
		grows(1<<k - 1)
		grows(1 << k)
	}
}

func TestILog2(t *testing.T) {
	cases := []struct{ n, want int }{
		{0, -1}, {-3, -1}, {1, 0}, {2, 1}, {3, 1}, {4, 2}, {7, 2}, {8, 3}, {1 << 20, 20},
	}
	for _, c := range cases {
		if got := ILog2(c.n); got != c.want {
			t.Errorf("ILog2(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestILog2Property(t *testing.T) {
	f := func(v uint32) bool {
		n := int(v%1000000) + 1
		k := ILog2(n)
		return 1<<uint(k) <= n && n < 1<<uint(k+1)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCeilLog(t *testing.T) {
	cases := []struct{ n, b, want int }{
		{1, 2, 0}, {2, 2, 1}, {3, 2, 2}, {4, 2, 2}, {5, 2, 3},
		{8, 2, 3}, {9, 2, 4}, {16384, 2, 14},
		{1, 10, 0}, {10, 10, 1}, {11, 10, 2}, {100, 10, 2}, {101, 10, 3},
		{27, 3, 3}, {28, 3, 4},
	}
	for _, c := range cases {
		if got := CeilLog(c.n, c.b); got != c.want {
			t.Errorf("CeilLog(%d,%d) = %d, want %d", c.n, c.b, got, c.want)
		}
	}
}

func TestIPow(t *testing.T) {
	cases := []struct{ b, e, want int }{
		{2, 0, 1}, {2, 10, 1024}, {3, 4, 81}, {10, 3, 1000}, {1, 100, 1}, {7, 1, 7},
	}
	for _, c := range cases {
		if got := IPow(c.b, c.e); got != c.want {
			t.Errorf("IPow(%d,%d) = %d, want %d", c.b, c.e, got, c.want)
		}
	}
}

func TestIPowCeilLogInverse(t *testing.T) {
	f := func(v uint16, bb uint8) bool {
		n := int(v%60000) + 1
		b := int(bb%14) + 2
		k := CeilLog(n, b)
		return IPow(b, k) >= n && (k == 0 || IPow(b, k-1) < n)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func sortFloats(xs []float64) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

func TestNearestRank(t *testing.T) {
	if got := NearestRank(nil, 0.5); got != 0 {
		t.Errorf("empty = %v, want 0", got)
	}
	// The pinned contract of the traffic pipeline's latency summaries:
	// over 1..100, the nearest-rank p50/p95/p99 are exactly 50/95/99.
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	for _, tc := range []struct{ q, want float64 }{
		{0, 1}, {0.50, 50}, {0.95, 95}, {0.99, 99}, {1, 100},
	} {
		if got := NearestRank(xs, tc.q); got != tc.want {
			t.Errorf("NearestRank(1..100, %v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	if got := NearestRank([]float64{7}, 0.9); got != 7 {
		t.Errorf("single-element = %v, want 7", got)
	}
}

func TestNearestRankWithinRange(t *testing.T) {
	f := func(raw []float64, qr uint8) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		sortFloats(xs)
		q := float64(qr) / 255
		v := NearestRank(xs, q)
		return v >= xs[0] && v <= xs[len(xs)-1]
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
