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

func TestHarmonicRange(t *testing.T) {
	if got := HarmonicRange(2, 4); math.Abs(got-(1.0/3+1.0/4)) > 1e-12 {
		t.Errorf("HarmonicRange(2,4) = %v", got)
	}
	if got := HarmonicRange(4, 4); got != 0 {
		t.Errorf("HarmonicRange(4,4) = %v, want 0", got)
	}
	if got := HarmonicRange(-1, 2); math.Abs(got-1.5) > 1e-12 {
		t.Errorf("HarmonicRange(-1,2) = %v, want 1.5", got)
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

func TestSummarize(t *testing.T) {
	if _, err := Summarize(nil); err != ErrEmpty {
		t.Errorf("Summarize(nil) err = %v, want ErrEmpty", err)
	}
	s, err := Summarize([]float64{4, 1, 3, 2})
	if err != nil {
		t.Fatal(err)
	}
	if s.N != 4 || s.Min != 1 || s.Max != 4 || s.Mean != 2.5 {
		t.Errorf("Summarize = %+v", s)
	}
	if math.Abs(s.Median-2.5) > 1e-12 {
		t.Errorf("median = %v, want 2.5", s.Median)
	}
	wantStd := math.Sqrt((2.25 + 0.25 + 0.25 + 2.25) / 3)
	if math.Abs(s.Std-wantStd) > 1e-12 {
		t.Errorf("std = %v, want %v", s.Std, wantStd)
	}
}

func TestPercentileBounds(t *testing.T) {
	sorted := []float64{1, 2, 3, 4, 5}
	if got := Percentile(sorted, 0); got != 1 {
		t.Errorf("P0 = %v", got)
	}
	if got := Percentile(sorted, 1); got != 5 {
		t.Errorf("P100 = %v", got)
	}
	if got := Percentile(sorted, 0.5); got != 3 {
		t.Errorf("P50 = %v", got)
	}
	if got := Percentile([]float64{7}, 0.9); got != 7 {
		t.Errorf("single-element percentile = %v", got)
	}
}

func TestPercentileWithinRange(t *testing.T) {
	f := func(raw []float64, pr uint8) bool {
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
		p := float64(pr) / 255
		v := Percentile(xs, p)
		return v >= xs[0] && v <= xs[len(xs)-1]
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

func TestLinearFitExact(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	ys := []float64{5, 7, 9, 11} // y = 3 + 2x
	a, b, r2, err := LinearFit(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(a-3) > 1e-9 || math.Abs(b-2) > 1e-9 || math.Abs(r2-1) > 1e-9 {
		t.Errorf("fit = (%v,%v,%v), want (3,2,1)", a, b, r2)
	}
}

func TestLinearFitErrors(t *testing.T) {
	if _, _, _, err := LinearFit([]float64{1}, []float64{1}); err == nil {
		t.Error("want error for single point")
	}
	if _, _, _, err := LinearFit([]float64{1, 2}, []float64{1}); err == nil {
		t.Error("want error for mismatched lengths")
	}
	if _, _, _, err := LinearFit([]float64{2, 2}, []float64{1, 5}); err == nil {
		t.Error("want error for degenerate x")
	}
}

func TestPowerFitExact(t *testing.T) {
	// y = 4 x^1.5
	xs := []float64{1, 2, 4, 8, 16}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 4 * math.Pow(x, 1.5)
	}
	c, k, r2, err := PowerFit(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(c-4) > 1e-9 || math.Abs(k-1.5) > 1e-9 || math.Abs(r2-1) > 1e-9 {
		t.Errorf("power fit = (%v,%v,%v)", c, k, r2)
	}
}

func TestPowerFitRejectsNonPositive(t *testing.T) {
	if _, _, _, err := PowerFit([]float64{1, -2}, []float64{1, 2}); err == nil {
		t.Error("want error for non-positive x")
	}
	if _, _, _, err := PowerFit([]float64{1, 2}, []float64{1, 0}); err == nil {
		t.Error("want error for non-positive y")
	}
}

func TestMinMaxAbs(t *testing.T) {
	if MinInt(3, -2) != -2 || MaxInt(3, -2) != 3 {
		t.Error("MinInt/MaxInt broken")
	}
	if AbsInt(-7) != 7 || AbsInt(7) != 7 || AbsInt(0) != 0 {
		t.Error("AbsInt broken")
	}
	if Mean(nil) != 0 {
		t.Error("Mean(nil) != 0")
	}
	if Mean([]float64{2, 4}) != 3 {
		t.Error("Mean broken")
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
