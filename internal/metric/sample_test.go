package metric

import (
	"math"
	"testing"

	"repro/internal/rng"
)

// samplerSpaces returns one space of each kind at small size.
func samplerSpaces(t *testing.T) []Space {
	t.Helper()
	ring, err := NewRing(64)
	if err != nil {
		t.Fatal(err)
	}
	line, err := NewLine(64)
	if err != nil {
		t.Fatal(err)
	}
	torus, err := NewTorus(8, 2)
	if err != nil {
		t.Fatal(err)
	}
	torus3, err := NewTorus(5, 3)
	if err != nil {
		t.Fatal(err)
	}
	return []Space{ring, line, torus, torus3}
}

func TestLinkSamplerNeverSelf(t *testing.T) {
	for _, sp := range samplerSpaces(t) {
		for _, exp := range []float64{0, 1, 2, 1.5} {
			s, err := sp.NewLinkSampler(exp)
			if err != nil {
				t.Fatalf("%s exp %v: %v", sp.Name(), exp, err)
			}
			src := rng.New(1)
			for i := 0; i < 2000; i++ {
				p := Point(src.Intn(sp.Size()))
				q, ok := s.Sample(p, src)
				if !ok {
					t.Fatalf("%s exp %v: sampler gave up", sp.Name(), exp)
				}
				if q == p {
					t.Fatalf("%s exp %v: sampled self-link", sp.Name(), exp)
				}
				if !sp.Contains(q) {
					t.Fatalf("%s exp %v: sampled %d outside the space", sp.Name(), exp, q)
				}
			}
		}
	}
}

// The torus sampler's distance marginal must match shell(r)·r^(−e)
// exactly (up to Monte Carlo noise), and targets must be uniform within
// a shell.
func TestTorusSamplerMarginal(t *testing.T) {
	torus, err := NewTorus(8, 2)
	if err != nil {
		t.Fatal(err)
	}
	const exponent = 2
	s, err := torus.NewLinkSampler(exponent)
	if err != nil {
		t.Fatal(err)
	}
	// Exact shell sizes for side=8, dim=2: per-axis counts are
	// 1,2,2,2,1 for distances 0..4.
	shell := map[int]float64{}
	axis := []float64{1, 2, 2, 2, 1}
	for a := 0; a <= 4; a++ {
		for b := 0; b <= 4; b++ {
			shell[a+b] += axis[a] * axis[b]
		}
	}
	var want []float64
	var total float64
	maxD := 8
	for r := 1; r <= maxD; r++ {
		w := shell[r] / float64(r*r)
		want = append(want, w)
		total += w
	}
	const n = 200000
	src := rng.New(99)
	counts := make([]int, maxD+1)
	perPoint := map[Point]int{}
	p := torus.At(3, 5)
	for i := 0; i < n; i++ {
		q, ok := s.Sample(p, src)
		if !ok {
			t.Fatal("sampler gave up")
		}
		d := torus.Distance(p, q)
		if d < 1 || d > maxD {
			t.Fatalf("sampled distance %d outside [1,%d]", d, maxD)
		}
		counts[d]++
		if d == 3 {
			perPoint[q]++
		}
	}
	for r := 1; r <= maxD; r++ {
		got := float64(counts[r]) / n
		exp := want[r-1] / total
		if math.Abs(got-exp) > 0.01 {
			t.Errorf("P(distance=%d) = %.4f, want %.4f", r, got, exp)
		}
	}
	// Uniformity within the distance-3 shell (12 points for side 8).
	if len(perPoint) != int(shell[3]) {
		t.Errorf("distance-3 shell hit %d distinct points, want %v", len(perPoint), shell[3])
	}
	shellTotal := 0
	for _, c := range perPoint {
		shellTotal += c
	}
	for q, c := range perPoint {
		got := float64(c) / float64(shellTotal)
		exp := 1 / shell[3]
		if math.Abs(got-exp) > 0.02 {
			t.Errorf("point %d within shell 3: frequency %.4f, want %.4f", q, got, exp)
		}
	}
}

// Exponent 0 must be uniform over all points ≠ p on the torus.
func TestTorusSamplerUniform(t *testing.T) {
	torus, err := NewTorus(5, 2)
	if err != nil {
		t.Fatal(err)
	}
	s, err := torus.NewLinkSampler(0)
	if err != nil {
		t.Fatal(err)
	}
	const n = 120000
	src := rng.New(3)
	counts := map[Point]int{}
	for i := 0; i < n; i++ {
		q, ok := s.Sample(0, src)
		if !ok {
			t.Fatal("sampler gave up")
		}
		counts[q]++
	}
	if len(counts) != torus.Size()-1 {
		t.Fatalf("uniform sampler hit %d points, want %d", len(counts), torus.Size()-1)
	}
	for q, c := range counts {
		got := float64(c) / n
		exp := 1 / float64(torus.Size()-1)
		if math.Abs(got-exp) > 0.01 {
			t.Errorf("P(%d) = %.4f, want %.4f", q, got, exp)
		}
	}
}

func TestDegenerateSamplers(t *testing.T) {
	one, err := NewRing(1)
	if err != nil {
		t.Fatal(err)
	}
	s, err := one.NewLinkSampler(1)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Sample(0, rng.New(1)); ok {
		t.Error("singleton ring must have no targets")
	}
	t1, err := NewTorus(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	st, err := t1.NewLinkSampler(2)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := st.Sample(0, rng.New(1)); ok {
		t.Error("singleton torus must have no targets")
	}
}

// loopSideMass is the line sampler's side mass as it was before the
// running sum was precomputed — the table's probabilities re-added on
// every call — kept as the reference the prefix table must equal bit for
// bit: the side choice compares against it and every later variate of
// the stream follows from that choice.
func loopSideMass(max int, table *rng.PowerLawSampler) float64 {
	var m float64
	for d := 1; d <= max && d <= table.Max(); d++ {
		m += table.Prob(d)
	}
	return m
}

func TestLineSamplerMatchesLoopedSideMass(t *testing.T) {
	const n = 300
	draws := 100000
	if testing.Short() {
		draws = 10000
	}
	line, err := NewLine(n)
	if err != nil {
		t.Fatal(err)
	}
	for _, exp := range []float64{0.5, 2, 3} {
		ls, err := line.NewLinkSampler(exp)
		if err != nil {
			t.Fatal(err)
		}
		s := ls.(*lineSampler)
		for m := 0; m < n; m++ {
			if got, want := s.sideMass(m), loopSideMass(m, s.table); got != want {
				t.Fatalf("exp %v: sideMass(%d) = %b, loop gives %b", exp, m, got, want)
			}
		}
		// The reference draw: the old Sample body over the looped mass.
		reference := func(p Point, src *rng.Source) Point {
			left, right := int(p), n-1-int(p)
			lMass, rMass := loopSideMass(left, s.table), loopSideMass(right, s.table)
			goLeft := src.Float64()*(lMass+rMass) < lMass
			if goLeft && left > 0 || right == 0 {
				return p - Point(sampleDistance(src, left, exp, s.table))
			}
			return p + Point(sampleDistance(src, right, exp, s.table))
		}
		pick, got, want := rng.New(11), rng.New(12), rng.New(12)
		for i := 0; i < draws; i++ {
			p := Point(pick.Intn(n))
			switch i % 50 { // both boundaries, often
			case 0:
				p = 0
			case 1:
				p = n - 1
			}
			q, ok := s.Sample(p, got)
			if ref := reference(p, want); !ok || q != ref {
				t.Fatalf("exp %v draw %d at %d: got %d (ok %v), reference %d", exp, i, p, q, ok, ref)
			}
		}
		if got.Uint64() != want.Uint64() {
			t.Fatalf("exp %v: the sampler and its reference consumed different variates", exp)
		}
	}
}

func BenchmarkLinkSampler(b *testing.B) {
	ring, _ := NewRing(1 << 14)
	line, _ := NewLine(1 << 14)
	torus, _ := NewTorus(128, 2)
	for _, bc := range []struct {
		name  string
		space Space
		exp   float64
	}{
		{"ring", ring, 1},
		{"line/exp1", line, 1},
		{"line/exp2", line, 2},
		{"torus2d", torus, 2},
	} {
		b.Run(bc.name, func(b *testing.B) {
			s, err := bc.space.NewLinkSampler(bc.exp)
			if err != nil {
				b.Fatal(err)
			}
			src := rng.New(1)
			n := bc.space.Size()
			var sink Point
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				q, _ := s.Sample(Point(i%n), src)
				sink += q
			}
			benchSink = sink
		})
	}
}

var benchSink Point
