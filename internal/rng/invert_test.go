package rng

import (
	"math"
	"sort"
	"testing"

	"repro/internal/mathx"
)

// searchHarmonic is the binary search invertHarmonic replaced, kept as
// its reference: every seeded graph was drawn through this expression.
func searchHarmonic(target float64, max int) int {
	return sort.Search(max, func(i int) bool {
		return mathx.Harmonic(i+1) > target
	})
}

func checkInversion(t *testing.T, target float64, max int) {
	t.Helper()
	if got, want := invertHarmonic(target, max), searchHarmonic(target, max); got != want {
		t.Fatalf("invertHarmonic(%v [%#x], %d) = %d, binary search gives %d",
			target, math.Float64bits(target), max, got, want)
	}
}

func TestInvertHarmonicMatchesSearch(t *testing.T) {
	uniform := 200000
	if testing.Short() {
		uniform = 20000
	}
	const T = mathx.HarmonicTableLen
	// The targets where harmonicGuide hands over: every bucket edge,
	// and guideTop, above which the exp guess takes over.
	edges := make([]float64, 0, len(harmonicGuide)+1)
	for k := range harmonicGuide {
		edges = append(edges, float64(k)/guideScale)
	}
	edges = append(edges, guideTop)
	for _, max := range []int{1, 2, 3, 254, 255, 256, 257, 1023, T - 2, T - 1, T, T + 1, 1 << 14, 1 << 20, 1 << 30, 1 << 40} {
		hmax := mathx.Harmonic(max)
		src := New(uint64(max))
		for k := 0; k < uniform; k++ {
			checkInversion(t, src.Float64()*hmax, max)
		}
		// Every step of the CDF within reach, and the floats on either
		// side of it: where an off-by-one would hide.
		for d := 0; d <= max && d <= 5000; d++ {
			checkAround(t, mathx.Harmonic(d), max)
		}
		for _, e := range edges {
			checkAround(t, e, max)
		}
	}
}

// checkAround checks the inversion at x and at the floats on either
// side of it.
func checkAround(t *testing.T, x float64, max int) {
	t.Helper()
	checkInversion(t, x, max)
	checkInversion(t, math.Nextafter(x, math.Inf(-1)), max)
	checkInversion(t, math.Nextafter(x, math.Inf(1)), max)
}

// TestInvertHarmonicClamp drives the closed-form guess to, past and
// just short of the largest int — where an unclamped float-to-int
// conversion is implementation-specific — and to the values no variate
// produces but a caller could pass.
func TestInvertHarmonicClamp(t *testing.T) {
	const max = math.MaxInt64
	hmax := mathx.Harmonic(max)
	largest := hmax * (1 - 0x1p-53) // Float64() < 1, so this is the largest target a draw can form
	for _, target := range []float64{
		largest, hmax, largest * (1 - 0x1p-50), hmax - 1, // guess short of 2^63 (by 3e4 at hmax)
		math.Nextafter(hmax, math.Inf(1)), hmax + 1, // guess beyond it
		math.MaxFloat64, math.Inf(1), math.NaN(), 0, -1, math.Inf(-1),
	} {
		checkInversion(t, target, max)
		checkInversion(t, target, 1000)
	}
}

func FuzzInvertHarmonic(f *testing.F) {
	f.Add(math.Float64bits(0), uint32(1))
	f.Add(math.Float64bits(1), uint32(2))
	f.Add(math.Float64bits(mathx.Harmonic(255)), uint32(256))
	f.Add(math.Float64bits(mathx.Harmonic(256)), uint32(257))
	f.Add(math.Float64bits(guideTop), uint32(mathx.HarmonicTableLen))
	f.Add(math.Float64bits(math.Nextafter(guideTop, 0)), uint32(mathx.HarmonicTableLen))
	f.Add(math.Float64bits(9.5), uint32(1<<14))
	f.Add(math.Float64bits(23), uint32(math.MaxUint32))
	f.Add(math.Float64bits(math.NaN()), uint32(100))
	f.Add(math.Float64bits(math.Inf(1)), uint32(0))
	f.Fuzz(func(t *testing.T, targetBits uint64, max uint32) {
		checkInversion(t, math.Float64frombits(targetBits), int(max))
	})
}

func BenchmarkSampleHarmonic(b *testing.B) {
	for _, bc := range []struct {
		name string
		max  int
	}{
		{"max1023", 1023},
		{"max2^13-1", mathx.HarmonicTableLen - 1}, // every draw inside the tables
		{"max2^15", 4 * mathx.HarmonicTableLen},   // draws straddle the handover to exp
		{"max2^20", 1 << 20},
	} {
		b.Run(bc.name, func(b *testing.B) {
			s := New(1)
			sink := 0
			for i := 0; i < b.N; i++ {
				sink += SampleHarmonic(s, bc.max)
			}
			benchSink = sink
		})
	}
}

var benchSink int
