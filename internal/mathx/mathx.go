// Package mathx provides small numeric helpers shared across the
// repository: harmonic numbers, integer logarithms, descriptive
// statistics, histograms, and least-squares fits.
//
// Everything in this package is deterministic and allocation-conscious;
// the experiment harness calls these helpers in inner loops.
package mathx

import (
	"errors"
	"math"
	"sort"
)

// ErrEmpty is returned by statistics helpers that require at least one sample.
var ErrEmpty = errors.New("mathx: empty sample set")

// Harmonic returns the n-th harmonic number H_n = sum_{i=1..n} 1/i.
// For n <= 0 it returns 0. For large n it uses the asymptotic expansion
// H_n ≈ ln n + γ + 1/(2n) − 1/(12n²), which is accurate to well below
// 1e-10 for n ≥ 256; below that it reads the direct sum 1/1 + … + 1/n
// (accumulated in that order) from a table filled once.
func Harmonic(n int) float64 {
	if n <= 0 {
		return 0
	}
	if n < len(harmonicSmall) {
		return harmonicSmall[n]
	}
	fn := float64(n)
	return math.Log(fn) + EulerGamma + 1/(2*fn) - 1/(12*fn*fn)
}

// harmonicSmall[n] is H_n for n < 256, every prefix of one ascending
// summation.
var harmonicSmall = func() (t [256]float64) {
	h := 0.0
	for i := 1; i < len(t); i++ {
		h += 1 / float64(i)
		t[i] = h
	}
	return t
}()

// EulerGamma is the Euler–Mascheroni constant γ.
const EulerGamma = 0.57721566490153286060651209008240243

// HarmonicRange returns H_b − H_a = sum_{i=a+1..b} 1/i for 0 <= a <= b.
func HarmonicRange(a, b int) float64 {
	if a < 0 {
		a = 0
	}
	if b <= a {
		return 0
	}
	return Harmonic(b) - Harmonic(a)
}

// Log2 returns the base-2 logarithm of n as a float. n must be positive.
func Log2(n int) float64 { return math.Log2(float64(n)) }

// ILog2 returns floor(log2(n)) for n >= 1, and -1 for n <= 0.
func ILog2(n int) int {
	if n <= 0 {
		return -1
	}
	k := -1
	for n > 0 {
		n >>= 1
		k++
	}
	return k
}

// CeilLog returns ceil(log_b(n)) for n >= 1 and base b >= 2.
// CeilLog(1, b) == 0.
func CeilLog(n, b int) int {
	if n <= 1 {
		return 0
	}
	k, p := 0, 1
	for p < n {
		// Guard against overflow: if p would overflow, the next power
		// certainly exceeds n, so one more step suffices.
		if p > (1<<62)/b {
			return k + 1
		}
		p *= b
		k++
	}
	return k
}

// IPow returns base^exp for non-negative exp using binary exponentiation.
// It does not guard against overflow; callers keep operands small.
func IPow(base, exp int) int {
	r := 1
	for exp > 0 {
		if exp&1 == 1 {
			r *= base
		}
		base *= base
		exp >>= 1
	}
	return r
}

// AbsInt returns |x|.
func AbsInt(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// MinInt returns the smaller of a and b.
func MinInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// MaxInt returns the larger of a and b.
func MaxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Summary holds descriptive statistics of a float sample.
type Summary struct {
	N      int
	Mean   float64
	Std    float64 // sample standard deviation (n-1 denominator)
	Min    float64
	Max    float64
	Median float64
	P90    float64
	P99    float64
}

// Summarize computes descriptive statistics over xs.
// It returns ErrEmpty when xs is empty.
func Summarize(xs []float64) (Summary, error) {
	if len(xs) == 0 {
		return Summary{}, ErrEmpty
	}
	s := Summary{N: len(xs), Min: xs[0], Max: xs[0]}
	var sum float64
	for _, x := range xs {
		sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = sum / float64(len(xs))
	var ss float64
	for _, x := range xs {
		d := x - s.Mean
		ss += d * d
	}
	if len(xs) > 1 {
		s.Std = math.Sqrt(ss / float64(len(xs)-1))
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	s.Median = Percentile(sorted, 0.50)
	s.P90 = Percentile(sorted, 0.90)
	s.P99 = Percentile(sorted, 0.99)
	return s, nil
}

// Percentile returns the p-quantile (0 <= p <= 1) of an ascending-sorted
// slice using linear interpolation between closest ranks. The slice must
// be non-empty and sorted; Percentile does not verify either.
func Percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 1 {
		return sorted[0]
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 1 {
		return sorted[n-1]
	}
	pos := p * float64(n-1)
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	if lo+1 >= n {
		return sorted[n-1]
	}
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// NearestRank returns the nearest-rank q-quantile (0 <= q <= 1) of an
// ascending-sorted slice: the sample at rank round(q·n), clamped into
// range, with no interpolation. This is the estimator the traffic
// pipeline's latency summaries have always pinned in their seeded
// goldens; Percentile is the interpolating alternative. Returns 0 on
// empty input.
func NearestRank(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(q*float64(len(sorted))+0.5) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// LinearFit fits y = a + b*x by ordinary least squares and returns the
// intercept a, slope b, and the coefficient of determination R².
// It returns ErrEmpty if fewer than two points are supplied.
func LinearFit(xs, ys []float64) (a, b, r2 float64, err error) {
	if len(xs) != len(ys) {
		return 0, 0, 0, errors.New("mathx: mismatched slice lengths")
	}
	if len(xs) < 2 {
		return 0, 0, 0, ErrEmpty
	}
	n := float64(len(xs))
	var sx, sy, sxx, sxy, syy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
		sxx += xs[i] * xs[i]
		sxy += xs[i] * ys[i]
		syy += ys[i] * ys[i]
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return 0, 0, 0, errors.New("mathx: degenerate x values")
	}
	b = (n*sxy - sx*sy) / den
	a = (sy - b*sx) / n
	// R² = 1 − SS_res/SS_tot.
	ssTot := syy - sy*sy/n
	var ssRes float64
	for i := range xs {
		d := ys[i] - (a + b*xs[i])
		ssRes += d * d
	}
	if ssTot == 0 {
		r2 = 1
	} else {
		r2 = 1 - ssRes/ssTot
	}
	return a, b, r2, nil
}

// PowerFit fits y = c * x^k by linear regression in log-log space and
// returns (c, k, r2). All xs and ys must be positive.
func PowerFit(xs, ys []float64) (c, k, r2 float64, err error) {
	lx := make([]float64, len(xs))
	ly := make([]float64, len(ys))
	for i := range xs {
		if xs[i] <= 0 || i >= len(ys) || ys[i] <= 0 {
			return 0, 0, 0, errors.New("mathx: PowerFit requires positive data")
		}
		lx[i] = math.Log(xs[i])
		ly[i] = math.Log(ys[i])
	}
	a, b, r2, err := LinearFit(lx, ly)
	if err != nil {
		return 0, 0, 0, err
	}
	return math.Exp(a), b, r2, nil
}
