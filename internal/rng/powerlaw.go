package rng

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/mathx"
)

// HarmonicSampler draws integer distances d in [1, max] with probability
// proportional to 1/d — the inverse power-law distribution with exponent
// 1 that the paper proves is (nearly) optimal for greedy routing.
//
// Sampling inverts the CDF H_d / H_max in closed form (invertHarmonic):
// a draw costs one uniform variate, one exp and two or three
// evaluations of mathx.Harmonic whatever max is, with no precomputed
// tables, so a sampler per node costs nothing.
type HarmonicSampler struct {
	max  int
	hmax float64
}

// NewHarmonicSampler returns a sampler over distances [1, max].
// It returns an error if max < 1.
func NewHarmonicSampler(max int) (*HarmonicSampler, error) {
	if max < 1 {
		return nil, fmt.Errorf("rng: harmonic sampler needs max >= 1, got %d", max)
	}
	return &HarmonicSampler{max: max, hmax: mathx.Harmonic(max)}, nil
}

// Sample draws one distance from src. A sampler over [1, 1] returns 1
// without consuming a variate.
func (hs *HarmonicSampler) Sample(src *Source) int {
	if hs.max <= 1 {
		return 1
	}
	return invertHarmonic(src.Float64()*hs.hmax, hs.max) + 1
}

// SampleHarmonic is the one-shot form of HarmonicSampler.Sample, for
// callers whose admissible distance range depends on the node's
// position (e.g. near a line boundary). For max <= 1 it returns 1.
func SampleHarmonic(src *Source, max int) int {
	hs := HarmonicSampler{max: max, hmax: mathx.Harmonic(max)}
	return hs.Sample(src)
}

// invertHarmonic returns the smallest i in [0, max) with
// mathx.Harmonic(i+1) > target, or max if there is none — exactly what
// a binary search over that predicate returns (searchHarmonic, in the
// tests, is the one this replaced), mathx.Harmonic being
// non-decreasing. H_i ≈ ln i + γ + 1/(2i) puts exp(target − γ) − ½
// within [i, i+1) of the answer i, and the same predicate then corrects
// the guess a step at a time, so the result never depends on how good
// the guess is. It is off by at most one step up to max = 2^40; from
// about 2^50 a float64 no longer tells neighbouring H_i apart and the
// correction walks a plateau.
func invertHarmonic(target float64, max int) int {
	guess := math.Exp(target-mathx.EulerGamma) - 0.5
	// Clamp as a float: converting an out-of-range float64 to int is
	// implementation-specific, and float64(max) may round up past max.
	var i int
	switch {
	case !(guess < float64(max)): // also NaN: no H_i exceeds a NaN target
		i = max
	case guess > 0:
		i = int(guess)
	}
	for i > 0 && mathx.Harmonic(i) > target {
		i--
	}
	for i < max && !(mathx.Harmonic(i+1) > target) {
		i++
	}
	return i
}

// PowerLawSampler draws distances d in [1, max] with probability
// proportional to d^(-exponent) for an arbitrary exponent. It
// precomputes the cumulative mass table once (O(max) memory), so it is
// intended for ablation experiments that sweep the exponent, not for
// per-node use at large n.
type PowerLawSampler struct {
	max int
	cdf []float64 // cdf[i] = P(d <= i+1), cdf[max-1] == 1
}

// NewPowerLawSampler builds a sampler over [1, max] with the given
// exponent. exponent may be any real value (0 gives uniform).
func NewPowerLawSampler(max int, exponent float64) (*PowerLawSampler, error) {
	if max < 1 {
		return nil, fmt.Errorf("rng: power-law sampler needs max >= 1, got %d", max)
	}
	cdf := make([]float64, max)
	var total float64
	for d := 1; d <= max; d++ {
		total += powNeg(float64(d), exponent)
		cdf[d-1] = total
	}
	for i := range cdf {
		cdf[i] /= total
	}
	return &PowerLawSampler{max: max, cdf: cdf}, nil
}

// powNeg returns x^(-e), special-casing the common exponents so table
// construction avoids math.Pow in the usual cases.
func powNeg(x, e float64) float64 {
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

// Max returns the largest distance the sampler can produce.
func (ps *PowerLawSampler) Max() int { return ps.max }

// Sample draws one distance from src.
func (ps *PowerLawSampler) Sample(src *Source) int {
	u := src.Float64()
	i := sort.SearchFloat64s(ps.cdf, u)
	if i >= ps.max {
		i = ps.max - 1
	}
	return i + 1
}

// Prob returns the probability mass of distance d.
func (ps *PowerLawSampler) Prob(d int) float64 {
	if d < 1 || d > ps.max {
		return 0
	}
	if d == 1 {
		return ps.cdf[0]
	}
	return ps.cdf[d-1] - ps.cdf[d-2]
}
