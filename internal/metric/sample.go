package metric

import (
	"math"
	"sort"

	"repro/internal/mathx"
	"repro/internal/rng"
)

// LinkSampler draws long-distance link targets around a point from the
// inverse power law Pr[v] ∝ d(p, v)^(−exponent), normalized over all
// points v ≠ p of the space (§4.3: "each long-distance neighbor v is
// chosen with probability inversely proportional to the distance
// between u and v", generalized to arbitrary exponent and dimension).
// Samplers are immutable and safe for concurrent use with per-goroutine
// rng sources.
type LinkSampler interface {
	// Sample draws one target. ok is false when the space has no
	// admissible target for p (e.g. it has no other point).
	Sample(p Point, src *rng.Source) (Point, bool)
}

// ringSampler draws targets on a ring: a distance in [1, ⌊(n−1)/2⌋]
// from the configured power law, then a uniform side. By symmetry each
// side carries equal mass; the (even-n) antipodal point is reachable
// from either side, which double counts a single O(1/n) mass —
// negligible and unbiased.
type ringSampler struct {
	r        *Ring
	maxD     int
	exponent float64
	harmonic *rng.HarmonicSampler // exponent 1: the distance range is the same at every point
	table    *rng.PowerLawSampler // nil for the analytic exponents 0 and 1
}

// NewLinkSampler returns the ring's target sampler. Exponents 0
// (uniform) and 1 (the paper's harmonic distribution) sample
// analytically; other exponents precompute a CDF table.
func (r *Ring) NewLinkSampler(exponent float64) (LinkSampler, error) {
	maxD := (r.n - 1) / 2
	if maxD < 1 {
		maxD = 1
	}
	s := &ringSampler{r: r, maxD: maxD, exponent: exponent}
	var err error
	switch exponent {
	case 0:
	case 1:
		s.harmonic, err = rng.NewHarmonicSampler(maxD)
	default:
		s.table, err = rng.NewPowerLawSampler(maxD, exponent)
	}
	if err != nil {
		return nil, err
	}
	return s, nil
}

func (s *ringSampler) Sample(p Point, src *rng.Source) (Point, bool) {
	if s.r.n < 2 {
		return 0, false
	}
	var d int
	if s.harmonic != nil {
		d = s.harmonic.Sample(src)
	} else {
		d = sampleDistance(src, s.maxD, s.exponent, s.table)
	}
	dir := 1
	if src.Bool(0.5) {
		dir = -1
	}
	return s.r.Add(p, dir*d), true
}

// lineSampler draws targets on a line: the left side offers distances
// 1..p, the right side 1..n−1−p. It chooses the side in proportion to
// its total mass, then the distance within the side, so boundary nodes
// are handled exactly.
type lineSampler struct {
	l        *Line
	exponent float64
	table    *rng.PowerLawSampler // nil for the analytic exponents 0 and 1
	// mass[m] is the table's probability of distances 1..m, summed in
	// ascending order; nil when table is.
	mass []float64
}

// NewLinkSampler returns the line's target sampler.
func (l *Line) NewLinkSampler(exponent float64) (LinkSampler, error) {
	s := &lineSampler{l: l, exponent: exponent}
	if exponent != 0 && exponent != 1 {
		maxD := l.n - 1
		if maxD < 1 {
			maxD = 1
		}
		table, err := rng.NewPowerLawSampler(maxD, exponent)
		if err != nil {
			return nil, err
		}
		s.table = table
		s.mass = make([]float64, table.Max()+1)
		for d := 1; d <= table.Max(); d++ {
			s.mass[d] = s.mass[d-1] + table.Prob(d)
		}
	}
	return s, nil
}

func (s *lineSampler) Sample(p Point, src *rng.Source) (Point, bool) {
	n := s.l.n
	if n < 2 {
		return 0, false
	}
	left := int(p)
	right := n - 1 - int(p)
	if left == 0 && right == 0 {
		return 0, false
	}
	lMass := s.sideMass(left)
	rMass := s.sideMass(right)
	goLeft := src.Float64()*(lMass+rMass) < lMass
	if goLeft && left > 0 {
		return p - Point(sampleDistance(src, left, s.exponent, s.table)), true
	}
	if right > 0 {
		return p + Point(sampleDistance(src, right, s.exponent, s.table)), true
	}
	return p - Point(sampleDistance(src, left, s.exponent, s.table)), true
}

// sideMass returns the unnormalized probability mass of distances
// 1..max under the configured exponent. For a general exponent the
// table is normalized over the whole line; relative masses are all the
// side choice needs.
func (s *lineSampler) sideMass(max int) float64 {
	switch {
	case max <= 0:
		return 0
	case s.exponent == 1:
		return mathx.Harmonic(max)
	case s.exponent == 0:
		return float64(max)
	}
	return s.mass[max]
}

// sampleDistance draws a link length in [1, max].
func sampleDistance(src *rng.Source, max int, exponent float64, table *rng.PowerLawSampler) int {
	switch {
	case exponent == 1:
		return rng.SampleHarmonic(src, max)
	case exponent == 0:
		return src.Intn(max) + 1
	default:
		for i := 0; i < 64; i++ {
			if d := table.Sample(src); d <= max {
				return d
			}
		}
		return src.Intn(max) + 1
	}
}

// torusSampler draws targets on a d-dimensional torus. The distance
// marginal is Pr[r] ∝ shell(r)·r^(−exponent), where shell(r) is the
// exact number of grid points on the wrapped-L1 sphere of radius r
// (computed by convolving the per-axis distance distribution); the
// target is then uniform on that shell, decomposed axis by axis from
// the same convolution tables. Both steps are exact — no rejection, no
// shell-size approximation.
type torusSampler struct {
	t *Torus
	// ways[j][s] counts the coordinate tuples of axes j..dim-1 whose
	// wrapped distances sum to s; ways[0] is the shell-size vector.
	ways [][]float64
	cdf  []float64 // cdf[i] = P(distance <= i+1); empty when no target exists
}

// NewLinkSampler returns the torus's target sampler. The harmonic
// (routing-optimal) exponent of a d-dimensional torus is d, after
// Kleinberg's d-dimensional small-world theorem.
func (t *Torus) NewLinkSampler(exponent float64) (LinkSampler, error) {
	axisMax := t.side / 2
	maxD := t.dim * axisMax
	ways := make([][]float64, t.dim+1)
	ways[t.dim] = []float64{1}
	for j := t.dim - 1; j >= 0; j-- {
		row := make([]float64, (t.dim-j)*axisMax+1)
		for k := 0; k <= axisMax; k++ {
			c := t.axisCount(k)
			if c == 0 {
				continue
			}
			for s, w := range ways[j+1] {
				row[s+k] += float64(c) * w
			}
		}
		ways[j] = row
	}
	var cdf []float64
	var total float64
	if maxD >= 1 {
		cdf = make([]float64, maxD)
		for r := 1; r <= maxD; r++ {
			total += ways[0][r] * powNeg(float64(r), exponent)
			cdf[r-1] = total
		}
		for i := range cdf {
			cdf[i] /= total
		}
	}
	if total <= 0 {
		cdf = nil
	}
	return &torusSampler{t: t, ways: ways, cdf: cdf}, nil
}

func (s *torusSampler) Sample(p Point, src *rng.Source) (Point, bool) {
	if len(s.cdf) == 0 {
		return 0, false
	}
	u := src.Float64()
	i := sort.SearchFloat64s(s.cdf, u)
	if i >= len(s.cdf) {
		i = len(s.cdf) - 1
	}
	r := i + 1
	// Decompose r into per-axis wrapped distances, uniformly over the
	// shell: axis by axis, distance k is chosen with probability
	// axisCount(k)·ways[axis+1][r−k] / ways[axis][r], then the sign is
	// uniform over the residues realizing k.
	t := s.t
	axisMax := t.side / 2
	q := p
	rem := r
	for axis := 0; axis < t.dim; axis++ {
		rest := s.ways[axis+1]
		w := src.Float64() * s.ways[axis][rem]
		k, chosen := 0, false
		maxK := axisMax
		if rem < maxK {
			maxK = rem
		}
		for cand := 0; cand <= maxK; cand++ {
			c := t.axisCount(cand)
			if c == 0 || rem-cand >= len(rest) {
				continue
			}
			mass := float64(c) * rest[rem-cand]
			if w < mass {
				k, chosen = cand, true
				break
			}
			w -= mass
		}
		if !chosen {
			// Float drift: fall back to the largest feasible distance.
			for cand := maxK; cand >= 0; cand-- {
				if t.axisCount(cand) > 0 && rem-cand < len(rest) && rest[rem-cand] > 0 {
					k = cand
					break
				}
			}
		}
		delta := k
		if k > 0 && t.axisCount(k) == 2 && src.Bool(0.5) {
			delta = -k
		}
		q = t.offsetAxis(q, axis, delta)
		rem -= k
	}
	if q == p {
		return 0, false
	}
	return q, true
}

// powNeg returns x^(−e), special-casing the common exponents so table
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
