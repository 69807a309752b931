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
// Sampling inverts the CDF H_d / H_max (invertHarmonic). A draw costs
// one uniform variate, a guide-table load and 1.9–2.3 table loads of
// mathx.Harmonic on average; only a target above H(2^13 − 1) — 7 % of
// draws at max 2^14, 34 % at 2^20 — takes an exp and two or three
// math.Log calls. The tables are shared, so a sampler per node is free.
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
// non-decreasing. The first guess is harmonicGuide's lower bound for a
// target below guideTop, and otherwise exp(target − γ) − ½, which
// H_i ≈ ln i + γ + 1/(2i) puts within [i, i+1) of the answer i. The
// same predicate then corrects the guess a step at a time, so the
// result never depends on how good the guess is. The exp guess is off
// by at most one step up to max = 2^40; from about 2^50 a float64 no
// longer tells neighbouring H_i apart and the correction walks a
// plateau.
func invertHarmonic(target float64, max int) int {
	var guess float64
	if 0 <= target && target < guideTop { // also false for NaN
		guess = float64(harmonicGuide[int(target*guideScale)])
	} else {
		guess = math.Exp(target-mathx.EulerGamma) - 0.5
	}
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

// harmonicGuide is a guide table (Chen and Asau's indexed search) for
// targets below guideTop = H(HarmonicTableLen−1): harmonicGuide[k] is
// the smallest i with mathx.Harmonic(i+1) > k/guideScale, a lower bound
// on the answer for every target in [k/guideScale, (k+1)/guideScale).
// guideScale is a power of two, so target·guideScale is exact.
const guideScale = 1024

var (
	guideTop      = mathx.Harmonic(mathx.HarmonicTableLen - 1)
	harmonicGuide = func() []uint16 { // entries < HarmonicTableLen = 2^13
		guide := make([]uint16, int(guideTop*guideScale)+1)
		i := 0
		for k := range guide {
			for !(mathx.Harmonic(i+1) > float64(k)/guideScale) {
				i++
			}
			guide[k] = uint16(i)
		}
		return guide
	}()
)

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
		total += mathx.PowNeg(float64(d), exponent)
		cdf[d-1] = total
	}
	for i := range cdf {
		cdf[i] /= total
	}
	return &PowerLawSampler{max: max, cdf: cdf}, nil
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
