// Package analysis turns the paper's theorems into executable formulas,
// so experiments can print measured hop counts side by side with the
// bounds they are supposed to obey.
//
// Upper bounds come from the Karp–Upfal–Wigderson probabilistic
// recurrence (Lemma 1): T(X₀) ≤ ∫₁^{X₀} dz/µ_z when the expected
// one-step drop µ_z is nondecreasing. Lower bounds come from the
// paper's Theorem 2/Theorem 10 machinery.
//
// Constant factors in O(·) bounds are reported as the paper derives
// them (e.g. 8·H_n/ℓ per phase in Theorem 13); they are upper-bound
// constants, not tight predictions, so experiment output reports the
// measured-to-bound ratio rather than expecting equality.
package analysis

import (
	"errors"
	"math"

	"repro/internal/mathx"
)

// Lemma1Integral numerically evaluates the KUW bound ∫₁^{x0} dz/µ(z)
// with the trapezoid rule. µ must be positive on [1, x0]. It returns an
// error for x0 < 1 or non-positive µ.
func Lemma1Integral(x0 float64, mu func(z float64) float64) (float64, error) {
	if x0 < 1 {
		return 0, errors.New("analysis: Lemma1Integral needs x0 >= 1")
	}
	// Substitute z = e^u, dz = e^u du, so the integral becomes
	// ∫₀^{ln x0} e^u/µ(e^u) du. For the near-linear µ that arise from
	// greedy routing the transformed integrand is almost constant,
	// which keeps the trapezoid rule accurate where 1/µ(z) blows up
	// near z = 1.
	const steps = 8192
	umax := math.Log(x0)
	h := umax / steps
	if h == 0 {
		return 0, nil
	}
	integrand := func(u float64) (float64, error) {
		z := math.Exp(u)
		v := mu(z)
		if v <= 0 || math.IsInf(v, 0) || math.IsNaN(v) {
			return 0, errors.New("analysis: mu must be positive on [1, x0]")
		}
		return z / v, nil
	}
	sum := 0.0
	prev, err := integrand(0)
	if err != nil {
		return 0, err
	}
	for i := 1; i <= steps; i++ {
		cur, err := integrand(float64(i) * h)
		if err != nil {
			return 0, err
		}
		sum += float64((prev + cur) / 2 * h)
		prev = cur
	}
	return sum, nil
}

// SingleLinkUpperBound returns the Theorem 12 upper bound on expected
// delivery time with one long link per node: T(n) ≤ Σ_{k=1..n} 2H_n/k
// = 2H_n².
func SingleLinkUpperBound(n int) float64 {
	h := mathx.Harmonic(n)
	return 2 * h * h
}

// MultiLinkUpperBound returns the Theorem 13 upper bound with
// ℓ ∈ [1, lg n] long links: T(n) ≤ (1 + lg n)·8H_n/ℓ.
func MultiLinkUpperBound(n, links int) float64 {
	if links < 1 {
		links = 1
	}
	return (1 + mathx.Log2(n)) * 8 * mathx.Harmonic(n) / float64(links)
}

// DeterministicUpperBound returns the Theorem 14 delivery bound for the
// base-b digit-elimination overlay: ⌈log_b n⌉ hops.
func DeterministicUpperBound(n, b int) float64 {
	return float64(mathx.CeilLog(n, b))
}

// LinkFailureUpperBound returns the Theorem 15 bound with ℓ links each
// present independently with probability p: T(n) ≤ (1+lg n)·8H_n/(pℓ).
func LinkFailureUpperBound(n, links int, p float64) (float64, error) {
	if p <= 0 || p > 1 {
		return 0, errors.New("analysis: link-present probability must be in (0,1]")
	}
	return MultiLinkUpperBound(n, links) / p, nil
}

// DetLinkFailureUpperBound returns the Theorem 16 bound for the
// powers-of-b overlay under link failures: T(n) ≤ 1 + 2(b−q)H_{n−1}/p
// with q = 1−p.
func DetLinkFailureUpperBound(n, b int, p float64) (float64, error) {
	if p <= 0 || p > 1 {
		return 0, errors.New("analysis: link-present probability must be in (0,1]")
	}
	q := 1 - p
	return 1 + 2*(float64(b)-q)*mathx.Harmonic(n-1)/p, nil
}

// BinomialNodesUpperBound returns the Theorem 17 bound: when each node
// is present with probability p and links are drawn conditioned on
// presence, the delivery time matches the failure-free single-link
// bound 2H_n².
func BinomialNodesUpperBound(n int) float64 { return SingleLinkUpperBound(n) }

// NodeFailureUpperBound returns the Theorem 18 bound when each node
// fails with probability p after linking: T(n) ≤ (1+lg n)·8H_n/((1−p)ℓ).
func NodeFailureUpperBound(n, links int, p float64) (float64, error) {
	if p < 0 || p >= 1 {
		return 0, errors.New("analysis: node-failure probability must be in [0,1)")
	}
	return MultiLinkUpperBound(n, links) / (1 - p), nil
}

// LargeLBound returns the Theorem 3 lower bound for ℓ ∈ (lg n, n^c]:
// any routing strategy needs Ω(log n/log ℓ) hops; the returned value is
// log n/log ℓ with no hidden constant.
func LargeLBound(n, links int) float64 {
	if links < 2 {
		links = 2
	}
	return math.Log(float64(n)) / math.Log(float64(links))
}

// Theorem10LowerBound evaluates the explicit pre-asymptotic form of the
// paper's main lower bound (equation (24) combined with Theorem 2's
// denominator): with ℓ expected links per node, a = 3ℓ·ln³n,
// ε = ln⁻³n, and L = 6ℓ for one-sided routing (6ℓ + 3ℓ² for two-sided),
//
//	T = ln a·⌊ln n/ln a⌋ / (ln(1/(1−a⁻¹)) + 2·ln(1 + L/⌊ln n/ln a⌋))
//	E[τ] ≥ T / (εT + (1−ε)).
//
// It returns 1 when the machinery degenerates (tiny n or huge ℓ), since
// every search of distinct endpoints takes at least one hop.
func Theorem10LowerBound(n, links int, oneSided bool) float64 {
	if n < 4 || links < 1 {
		return 1
	}
	ln := math.Log(float64(n))
	l := float64(links)
	a := 3 * l * ln * ln * ln
	lna := math.Log(a)
	phases := math.Floor(ln / lna)
	if phases < 1 {
		return 1
	}
	L := 6 * l
	if !oneSided {
		L = float64(6*l) + float64(3*l*l)
	}
	den := math.Log(1/(1-1/a)) + 2*math.Log(1+L/phases)
	if den <= 0 {
		return 1
	}
	T := lna * phases / den
	eps := 1 / (ln * ln * ln)
	bound := T / (float64(eps*T) + (1 - eps))
	if bound < 1 {
		return 1
	}
	return bound
}

// AsymptoticLowerBound returns the clean asymptotic form of Theorem 10,
// log²n/(ℓ·log log n) for one-sided routing and log²n/(ℓ²·log log n)
// for two-sided, with unit constant. Useful for scaling fits.
func AsymptoticLowerBound(n, links int, oneSided bool) float64 {
	if n < 16 || links < 1 {
		return 1
	}
	ln := math.Log(float64(n))
	lll := math.Log(ln)
	l := float64(links)
	den := l * lll
	if !oneSided {
		den = l * l * lll
	}
	v := ln * ln / den
	if v < 1 {
		return 1
	}
	return v
}

// SingleLinkExpectedDrop returns µ_k, the paper's lower bound on the
// expected distance covered in one step from distance k with a single
// exponent-1 long link (proof of Theorem 12): µ_k > k/(2H_n). Exposed
// so tests can cross-check Lemma1Integral against the closed form.
func SingleLinkExpectedDrop(n int) func(z float64) float64 {
	h2 := 2 * mathx.Harmonic(n)
	return func(z float64) float64 { return z / h2 }
}
