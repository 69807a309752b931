package metric

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestLineBasics(t *testing.T) {
	if _, err := NewLine(0); err == nil {
		t.Error("NewLine(0) should error")
	}
	if _, err := NewLine(math.MaxInt32 + 1); err == nil {
		t.Error("NewLine(MaxInt32+1) should error: coordinates are int32")
	}
	if _, err := NewLine(math.MaxInt32); err != nil {
		t.Errorf("NewLine(MaxInt32): %v", err)
	}
	l, err := NewLine(10)
	if err != nil {
		t.Fatal(err)
	}
	if l.Size() != 10 || l.Name() != "line" {
		t.Error("line accessors wrong")
	}
	if !l.Contains(0) || !l.Contains(9) || l.Contains(10) || l.Contains(-1) {
		t.Error("Contains wrong")
	}
	if l.Distance(3, 7) != 4 || l.Distance(7, 3) != 4 || l.Distance(5, 5) != 0 {
		t.Error("Distance wrong")
	}
}

func TestRingBasics(t *testing.T) {
	if _, err := NewRing(0); err == nil {
		t.Error("NewRing(0) should error")
	}
	if _, err := NewRing(math.MaxInt32 + 1); err == nil {
		t.Error("NewRing(MaxInt32+1) should error: coordinates are int32")
	}
	if _, err := NewRing(math.MaxInt32); err != nil {
		t.Errorf("NewRing(MaxInt32): %v", err)
	}
	r, err := NewRing(10)
	if err != nil {
		t.Fatal(err)
	}
	if r.Distance(0, 9) != 1 {
		t.Errorf("ring d(0,9) = %d, want 1", r.Distance(0, 9))
	}
	if r.Distance(0, 5) != 5 {
		t.Errorf("ring d(0,5) = %d, want 5", r.Distance(0, 5))
	}
	if r.Distance(2, 8) != 4 {
		t.Errorf("ring d(2,8) = %d, want 4", r.Distance(2, 8))
	}
	if r.Name() != "ring" || r.Size() != 10 {
		t.Error("ring accessors wrong")
	}
}

func TestRingAdd(t *testing.T) {
	r, err := NewRing(10)
	if err != nil {
		t.Fatal(err)
	}
	if r.Add(8, 3) != 1 {
		t.Errorf("Add(8,3) = %d", r.Add(8, 3))
	}
	if r.Add(2, -5) != 7 {
		t.Errorf("Add(2,-5) = %d", r.Add(2, -5))
	}
	if r.Add(0, -10) != 0 {
		t.Errorf("Add(0,-10) = %d", r.Add(0, -10))
	}
}

func TestRingClockwiseDistance(t *testing.T) {
	r, err := NewRing(10)
	if err != nil {
		t.Fatal(err)
	}
	if r.ClockwiseDistance(8, 2) != 4 {
		t.Errorf("cw(8,2) = %d", r.ClockwiseDistance(8, 2))
	}
	if r.ClockwiseDistance(2, 8) != 6 {
		t.Errorf("cw(2,8) = %d", r.ClockwiseDistance(2, 8))
	}
	if r.ClockwiseDistance(5, 5) != 0 {
		t.Errorf("cw(5,5) = %d", r.ClockwiseDistance(5, 5))
	}
}

// Metric axioms, property-checked for all three spaces.
func TestMetricAxioms(t *testing.T) {
	line, err := NewLine(257)
	if err != nil {
		t.Fatal(err)
	}
	ring, err := NewRing(257)
	if err != nil {
		t.Fatal(err)
	}
	grid, err := NewTorus(16, 2)
	if err != nil {
		t.Fatal(err)
	}
	torus3, err := NewTorus(7, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, sp := range []Space{line, ring, grid, torus3} {
		sp := sp
		f := func(aa, bb, cc uint16) bool {
			n := sp.Size()
			a := Point(int(aa) % n)
			b := Point(int(bb) % n)
			c := Point(int(cc) % n)
			dab := sp.Distance(a, b)
			dba := sp.Distance(b, a)
			dac := sp.Distance(a, c)
			dcb := sp.Distance(c, b)
			switch {
			case dab != dba: // symmetry
				return false
			case dab < 0: // non-negativity
				return false
			case a == b && dab != 0: // identity
				return false
			case a != b && dab == 0:
				return false
			case dab > dac+dcb: // triangle inequality
				return false
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
			t.Errorf("%s violates metric axioms: %v", sp.Name(), err)
		}
	}
}

func TestRingDistanceBounded(t *testing.T) {
	r, err := NewRing(100)
	if err != nil {
		t.Fatal(err)
	}
	f := func(aa, bb uint16) bool {
		a := Point(int(aa) % 100)
		b := Point(int(bb) % 100)
		return r.Distance(a, b) <= 50
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error("ring distance must be at most n/2:", err)
	}
}

func TestTorus2D(t *testing.T) {
	if _, err := NewTorus(0, 2); err == nil {
		t.Error("NewTorus(0, 2) should error")
	}
	if _, err := NewTorus(4, 0); err == nil {
		t.Error("NewTorus(4, 0) should error")
	}
	if _, err := NewTorus(1<<20, 4); err == nil {
		t.Error("oversized torus should error")
	}
	g, err := NewTorus(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if g.Size() != 16 || g.Side() != 4 || g.Dim() != 2 || g.Name() != "torus2d" {
		t.Error("torus accessors wrong")
	}
	p := g.At(1, 2)
	if x, y := g.Coord(p, 0), g.Coord(p, 1); x != 1 || y != 2 {
		t.Errorf("coords round-trip = (%d,%d)", x, y)
	}
	// Wrap-around distances on the torus.
	if d := g.Distance(g.At(0, 0), g.At(3, 3)); d != 2 {
		t.Errorf("torus d((0,0),(3,3)) = %d, want 2", d)
	}
	if d := g.Distance(g.At(0, 0), g.At(2, 2)); d != 4 {
		t.Errorf("torus d((0,0),(2,2)) = %d, want 4", d)
	}
	if g.At(-1, -1) != g.At(3, 3) {
		t.Error("At must reduce negative coords")
	}
}

func TestTorusStepOffset(t *testing.T) {
	g, err := NewTorus(5, 3)
	if err != nil {
		t.Fatal(err)
	}
	p := g.At(0, 0, 0)
	for dir := 1; dir <= 3; dir++ {
		fwd, ok := g.Step(p, dir)
		if !ok || g.Distance(p, fwd) != 1 {
			t.Errorf("Step(+%d) not adjacent", dir)
		}
		back, ok := g.Step(fwd, -dir)
		if !ok || back != p {
			t.Errorf("Step(-%d) did not invert Step(+%d)", dir, dir)
		}
	}
	if _, ok := g.Step(p, 4); ok {
		t.Error("axis 4 of a 3-D torus must not exist")
	}
	if _, ok := g.Step(p, 0); ok {
		t.Error("direction 0 must not exist")
	}
	// Offsets wrap: 5 steps along any axis return home.
	for dir := 1; dir <= 3; dir++ {
		q, ok := g.Offset(p, dir, 5)
		if !ok || q != p {
			t.Errorf("Offset(+%d, 5) should wrap home, got %d", dir, q)
		}
	}
	if q, _ := g.Offset(p, -2, 2); q != g.At(0, 3, 0) {
		t.Errorf("Offset(-2, 2) = %d, want %d", q, g.At(0, 3, 0))
	}
	for axis, want := range []int{1, 2, 3} {
		if c := g.Coord(g.At(1, 2, 3), axis); c != want {
			t.Errorf("Coord(At(1, 2, 3), %d) = %d, want %d", axis, c, want)
		}
	}
}

func TestTorusDim1MatchesRing(t *testing.T) {
	tor, err := NewTorus(17, 1)
	if err != nil {
		t.Fatal(err)
	}
	ring, err := NewRing(17)
	if err != nil {
		t.Fatal(err)
	}
	f := func(aa, bb uint16) bool {
		a, b := Point(int(aa)%17), Point(int(bb)%17)
		return tor.Distance(a, b) == ring.Distance(a, b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// coordDistance is the definition Torus.Distance must compute: the sum
// over axes of the wrapped distance between the two points' coordinates,
// each coordinate unpacked on its own by Coord.
func coordDistance(t *Torus, a, b Point) int {
	d := 0
	for axis := 0; axis < t.Dim(); axis++ {
		d += t.axisDist(t.Coord(a, axis), t.Coord(b, axis))
	}
	return d
}

// Distance peels coordinates off the packed point with 32-bit
// arithmetic; pin it to the per-axis definition for every dimension,
// odd and even sides, and the largest torus of each dimension NewTorus
// admits (in 1-D exactly MaxInt32 points, the decode's edge).
func TestTorusDistanceMatchesCoordFormula(t *testing.T) {
	type geom struct{ side, dim int }
	var geoms []geom
	for dim := 1; dim <= 4; dim++ {
		for _, side := range []int{1, 2, 3, 4, 7, 8} {
			geoms = append(geoms, geom{side, dim})
		}
	}
	geoms = append(geoms, geom{math.MaxInt32, 1}, geom{46340, 2}, geom{1290, 3}, geom{215, 4})
	src := rand.New(rand.NewSource(1))
	for _, gm := range geoms {
		tor, err := NewTorus(gm.side, gm.dim)
		if err != nil {
			t.Fatal(err)
		}
		size := tor.Size()
		if gm.side > 8 {
			if _, err := NewTorus(gm.side+1, gm.dim); err == nil {
				t.Errorf("side %d dim %d is not the largest admitted torus", gm.side, gm.dim)
			}
		}
		check := func(a, b Point) {
			if got, want := tor.Distance(a, b), coordDistance(tor, a, b); got != want {
				t.Fatalf("side %d dim %d: Distance(%d, %d) = %d, per-axis formula = %d",
					gm.side, gm.dim, a, b, got, want)
			}
		}
		if size <= 4096 {
			for a := 0; a < size; a++ {
				for b := 0; b < size; b += 1 + size/64 {
					check(Point(a), Point(b))
				}
			}
			continue
		}
		corners := []Point{0, 1, Point(gm.side - 1), Point(gm.side), Point(size / 2), Point(size - 2), Point(size - 1)}
		for _, a := range corners {
			for _, b := range corners {
				check(a, b)
			}
		}
		for i := 0; i < 20000; i++ {
			check(Point(src.Intn(size)), Point(src.Intn(size)))
		}
	}
}

func TestLineVsRingRelation(t *testing.T) {
	// Ring distance never exceeds line distance on identical coordinates.
	l, err := NewLine(64)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRing(64)
	if err != nil {
		t.Fatal(err)
	}
	f := func(aa, bb uint16) bool {
		a := Point(int(aa) % 64)
		b := Point(int(bb) % 64)
		return r.Distance(a, b) <= l.Distance(a, b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
