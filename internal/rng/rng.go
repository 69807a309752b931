// Package rng provides the repository's deterministic random-number
// machinery: a splittable 64-bit PRNG and the samplers the paper's
// constructions need (inverse power-law link lengths, Poisson in-degree
// estimates, uniform choices and shuffles).
//
// Determinism matters here: every experiment in the paper is a Monte
// Carlo simulation, and reproducing a figure requires that the same seed
// regenerate the same network. We therefore avoid the global math/rand
// state entirely; every component owns an *rng.Source derived from an
// experiment seed via Derive, so experiments are reproducible and
// parallelizable without locking.
package rng

import "math"

// Source is a small, fast, deterministic PRNG (splitmix64 used to seed a
// xoshiro256**-like state). It is NOT safe for concurrent use; derive
// one Source per goroutine with Derive.
type Source struct {
	s0, s1, s2, s3 uint64
}

// splitmix64 advances x and returns a well-mixed 64-bit value. It is the
// standard seeding generator for xoshiro-family PRNGs.
func splitmix64(x *uint64) uint64 {
	*x += 0x9E3779B97F4A7C15
	z := *x
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// New returns a Source seeded from the given seed. Two Sources built
// from equal seeds produce identical streams.
func New(seed uint64) *Source {
	var s Source
	s.seed(seed)
	return &s
}

// seed resets s to the state New(seed) starts in.
func (s *Source) seed(seed uint64) {
	x := seed
	s.s0 = splitmix64(&x)
	s.s1 = splitmix64(&x)
	s.s2 = splitmix64(&x)
	s.s3 = splitmix64(&x)
	// A xoshiro state of all zeros would be absorbing; splitmix64 cannot
	// produce four zero outputs in a row, so no further guard is needed.
}

// Derive returns a new independent Source keyed by (the parent's seed
// material, stream). Use it to hand each worker goroutine or each
// simulated node its own generator.
func (s *Source) Derive(stream uint64) *Source {
	var d Source
	s.DeriveInto(&d, stream)
	return &d
}

// DeriveInto is Derive into storage the caller owns — a slot of a
// per-run []Source, say, where one stream per message would otherwise
// be one heap object per message.
func (s *Source) DeriveInto(dst *Source, stream uint64) {
	x := s.s0 ^ rotl(s.s2, 17) ^ (stream * 0x9E3779B97F4A7C15)
	dst.seed(splitmix64(&x))
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next pseudo-random 64-bit value.
func (s *Source) Uint64() uint64 {
	result := rotl(s.s1*5, 7) * 9
	t := s.s1 << 17
	s.s2 ^= s.s0
	s.s3 ^= s.s1
	s.s1 ^= s.s2
	s.s0 ^= s.s3
	s.s2 ^= t
	s.s3 = rotl(s.s3, 45)
	return result
}

// Intn returns a uniform value in [0, n). It panics if n <= 0, matching
// math/rand semantics; callers validate n at construction time.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	// Lemire's nearly-divisionless bounded sampling.
	un := uint64(n)
	v := s.Uint64()
	hi, lo := mul64(v, un)
	if lo < un {
		thresh := -un % un
		for lo < thresh {
			v = s.Uint64()
			hi, lo = mul64(v, un)
		}
	}
	return int(hi)
}

// mul64 returns the 128-bit product of a and b as (hi, lo).
func mul64(a, b uint64) (hi, lo uint64) {
	const mask32 = 1<<32 - 1
	a0, a1 := a&mask32, a>>32
	b0, b1 := b&mask32, b>>32
	t := a1*b0 + (a0*b0)>>32
	lo1 := t&mask32 + a0*b1
	hi = a1*b1 + t>>32 + lo1>>32
	lo = a * b
	return hi, lo
}

// Float64 returns a uniform value in [0, 1).
func (s *Source) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p.
func (s *Source) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return s.Float64() < p
}

// Perm returns a pseudo-random permutation of [0, n).
func (s *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	s.Shuffle(len(p), func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}

// Shuffle performs a Fisher–Yates shuffle of n elements using swap.
func (s *Source) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		swap(i, j)
	}
}

// Poisson returns a Poisson-distributed value with rate lambda using
// Knuth's method for small rates and a normal approximation (rounded,
// clamped at 0) for large ones. The paper uses Poisson(ℓ) to estimate a
// joining node's in-degree (§5), so lambda is small in practice.
func (s *Source) Poisson(lambda float64) int {
	if lambda <= 0 {
		return 0
	}
	if lambda < 30 {
		l := math.Exp(-lambda)
		k := 0
		p := 1.0
		for {
			p *= s.Float64()
			if p <= l {
				return k
			}
			k++
		}
	}
	// Normal approximation for large lambda.
	v := lambda + math.Sqrt(lambda)*s.NormFloat64()
	if v < 0 {
		return 0
	}
	return int(v + 0.5)
}

// NormFloat64 returns a standard normal variate via the Box–Muller
// transform (polar form).
func (s *Source) NormFloat64() float64 {
	for {
		u := 2*s.Float64() - 1
		v := 2*s.Float64() - 1
		q := u*u + v*v
		if q > 0 && q < 1 {
			return u * math.Sqrt(-2*math.Log(q)/q)
		}
	}
}
