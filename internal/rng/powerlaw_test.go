package rng

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/mathx"
)

func TestHarmonicSamplerValidation(t *testing.T) {
	if _, err := NewHarmonicSampler(0); err == nil {
		t.Error("max=0 should error")
	}
	if _, err := NewHarmonicSampler(-5); err == nil {
		t.Error("negative max should error")
	}
	hs, err := NewHarmonicSampler(1)
	if err != nil {
		t.Fatal(err)
	}
	s := New(1)
	for i := 0; i < 10; i++ {
		if d := hs.Sample(s); d != 1 {
			t.Fatalf("max=1 sampler produced %d", d)
		}
	}
}

func TestHarmonicSamplerRange(t *testing.T) {
	f := func(seed uint64, mm uint16) bool {
		max := int(mm%4096) + 1
		hs, err := NewHarmonicSampler(max)
		if err != nil {
			return false
		}
		s := New(seed)
		for i := 0; i < 20; i++ {
			d := hs.Sample(s)
			if d < 1 || d > max {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestHarmonicSamplerDistribution verifies that empirical frequencies of
// small distances match 1/(d·H_max) — the paper's exponent-1 inverse
// power law.
func TestHarmonicSamplerDistribution(t *testing.T) {
	const max, draws = 1024, 400000
	hs, err := NewHarmonicSampler(max)
	if err != nil {
		t.Fatal(err)
	}
	s := New(99)
	counts := make([]int, max+1)
	for i := 0; i < draws; i++ {
		counts[hs.Sample(s)]++
	}
	hmax := mathx.Harmonic(max)
	for _, d := range []int{1, 2, 3, 5, 10, 50} {
		want := 1 / (float64(d) * hmax)
		got := float64(counts[d]) / draws
		tol := 5 * math.Sqrt(want*(1-want)/draws)
		if math.Abs(got-want) > tol+0.001 {
			t.Errorf("P(d=%d): got %v, want %v (tol %v)", d, got, want, tol)
		}
	}
}

func TestPowerLawSamplerValidation(t *testing.T) {
	if _, err := NewPowerLawSampler(0, 1); err == nil {
		t.Error("max=0 should error")
	}
}

func TestPowerLawSamplerUniform(t *testing.T) {
	// exponent 0 reduces to the uniform distribution.
	ps, err := NewPowerLawSampler(10, 0)
	if err != nil {
		t.Fatal(err)
	}
	for d := 1; d <= 10; d++ {
		if math.Abs(ps.Prob(d)-0.1) > 1e-9 {
			t.Errorf("P(%d) = %v, want 0.1", d, ps.Prob(d))
		}
	}
}

func TestPowerLawSamplerMatchesHarmonic(t *testing.T) {
	// exponent 1 must agree with the analytic harmonic law 1/(d·H_max).
	const max = 257
	ps, err := NewPowerLawSampler(max, 1)
	if err != nil {
		t.Fatal(err)
	}
	hmax := mathx.Harmonic(max)
	for d := 1; d <= max; d++ {
		if want := 1 / (float64(d) * hmax); math.Abs(ps.Prob(d)-want) > 1e-9 {
			t.Errorf("P(%d): table %v vs analytic %v", d, ps.Prob(d), want)
		}
	}
	if ps.Max() != max {
		t.Error("Max() wrong")
	}
}

func TestPowerLawSamplerRange(t *testing.T) {
	ps, err := NewPowerLawSampler(64, 2)
	if err != nil {
		t.Fatal(err)
	}
	s := New(4)
	for i := 0; i < 5000; i++ {
		d := ps.Sample(s)
		if d < 1 || d > 64 {
			t.Fatalf("sample %d out of range", d)
		}
	}
	if ps.Prob(0) != 0 || ps.Prob(65) != 0 {
		t.Error("out-of-range Prob should be 0")
	}
}

func TestPowerLawSamplerHighExponentConcentrates(t *testing.T) {
	ps, err := NewPowerLawSampler(1000, 3)
	if err != nil {
		t.Fatal(err)
	}
	s := New(8)
	small := 0
	const draws = 10000
	for i := 0; i < draws; i++ {
		if ps.Sample(s) <= 3 {
			small++
		}
	}
	if float64(small)/draws < 0.9 {
		t.Errorf("exponent-3 law should concentrate near 1; P(d<=3) = %v", float64(small)/draws)
	}
}

func BenchmarkHarmonicSample(b *testing.B) {
	hs, err := NewHarmonicSampler(1 << 17)
	if err != nil {
		b.Fatal(err)
	}
	s := New(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hs.Sample(s)
	}
}

func BenchmarkPowerLawSample(b *testing.B) {
	ps, err := NewPowerLawSampler(1<<17, 1)
	if err != nil {
		b.Fatal(err)
	}
	s := New(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ps.Sample(s)
	}
}
