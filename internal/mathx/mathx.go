// Package mathx provides small numeric helpers shared across the
// repository: harmonic numbers, integer logarithms, quantiles,
// histograms, and a generic binary heap.
//
// Everything in this package is deterministic and allocation-conscious;
// the experiment harness calls these helpers in inner loops.
package mathx

import "math"

// Harmonic returns the n-th harmonic number H_n = sum_{i=1..n} 1/i.
// For n <= 0 it returns 0. Below HarmonicTableLen it reads a table
// filled once — the direct sum 1/1 + … + 1/n, accumulated in that order,
// for n < 256 and harmonicAsymptotic's exact bits from 256 up — and
// beyond it evaluates harmonicAsymptotic.
func Harmonic(n int) float64 {
	if n <= 0 {
		return 0
	}
	if n < len(harmonicTable) {
		return harmonicTable[n]
	}
	return harmonicAsymptotic(n)
}

// HarmonicTableLen bounds the n for which Harmonic is one load.
const HarmonicTableLen = 1 << 13

// harmonicAsymptotic is H_n ≈ ln n + γ + 1/(2n) − 1/(12n²), accurate
// to well below 1e-10 for n ≥ 256.
func harmonicAsymptotic(n int) float64 {
	fn := float64(n)
	return math.Log(fn) + EulerGamma + 1/(2*fn) - 1/(12*fn*fn)
}

// harmonicTable[n] is Harmonic(n) for n < HarmonicTableLen.
var harmonicTable = func() (t [HarmonicTableLen]float64) {
	h := 0.0
	for i := 1; i < len(t); i++ {
		if i < 256 {
			h += 1 / float64(i)
			t[i] = h
		} else {
			t[i] = harmonicAsymptotic(i)
		}
	}
	return t
}()

// EulerGamma is the Euler–Mascheroni constant γ.
const EulerGamma = 0.57721566490153286060651209008240243

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

// PowNeg returns x^(−e), special-casing the common exponents so table
// construction avoids math.Pow in the usual cases.
func PowNeg(x, e float64) float64 {
	switch e {
	case 0:
		return 1
	case 1:
		return 1 / x
	case 2:
		return 1 / (x * x)
	}
	return math.Pow(x, -e)
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

// NearestRank returns the nearest-rank q-quantile (0 <= q <= 1) of an
// ascending-sorted slice: the sample at rank round(q·n), clamped into
// range, with no interpolation. This is the estimator the traffic
// pipeline's latency summaries have always pinned in their seeded
// goldens. Returns 0 on empty input.
func NearestRank(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(float64(q*float64(len(sorted)))+0.5) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}
