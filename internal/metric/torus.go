package metric

import (
	"fmt"
	"math"
)

// Torus is a d-dimensional torus: side^d grid points under wrapped L1
// (Manhattan) distance. For d = 2 it is the space of Kleinberg's
// small-world construction; for d = 1 it coincides with Ring. Every
// point has 2d grid neighbours, so the short-link structure of the
// paper generalizes directly.
//
// Coordinates pack lexicographically: p = Σ_i c_i · side^(d−1−i), so a
// 2-D point is x*side + y, matching the historical Grid2D layout.
type Torus struct {
	side, dim int
	size      int
	stride    []int // stride[i] = side^(dim-1-i)
}

// NewTorus returns a torus with the given side length and dimension.
// It returns an error if side < 1, dim < 1, or side^dim overflows a
// practical point range.
func NewTorus(side, dim int) (*Torus, error) {
	if side < 1 {
		return nil, fmt.Errorf("metric: torus needs side >= 1, got %d", side)
	}
	if dim < 1 {
		return nil, fmt.Errorf("metric: torus needs dim >= 1, got %d", dim)
	}
	size := 1
	stride := make([]int, dim)
	for i := dim - 1; i >= 0; i-- {
		stride[i] = size
		if size > math.MaxInt32/side {
			return nil, fmt.Errorf("metric: torus side=%d dim=%d exceeds the point range", side, dim)
		}
		size *= side
	}
	return &Torus{side: side, dim: dim, size: size, stride: stride}, nil
}

// Size returns side^dim.
func (t *Torus) Size() int { return t.size }

// Side returns the torus side length.
func (t *Torus) Side() int { return t.side }

// Dim returns the dimension.
func (t *Torus) Dim() int { return t.dim }

// Contains reports whether p is on the torus.
func (t *Torus) Contains(p Point) bool { return p >= 0 && int(p) < t.size }

// Coord returns p's coordinate along the given axis in [0, Dim).
func (t *Torus) Coord(p Point, axis int) int {
	return (int(p) / t.stride[axis]) % t.side
}

// Coords unpacks p into its Dim coordinates.
func (t *Torus) Coords(p Point) []int {
	c := make([]int, t.dim)
	for i := range c {
		c[i] = t.Coord(p, i)
	}
	return c
}

// At packs coordinates into a Point, reducing each modulo side. It
// panics if len(coords) != Dim.
func (t *Torus) At(coords ...int) Point {
	if len(coords) != t.dim {
		panic(fmt.Sprintf("metric: Torus.At got %d coords for dim %d", len(coords), t.dim))
	}
	v := 0
	for i, c := range coords {
		c %= t.side
		if c < 0 {
			c += t.side
		}
		v += c * t.stride[i]
	}
	return Point(v)
}

// Distance returns the wrapped L1 distance between two points of the
// torus. It is the innermost call of every greedy step (once per
// candidate neighbour), so it peels coordinates off the packed points
// from the last axis up with one 32-bit division per axis per point —
// NewTorus bounds Size by MaxInt32 — and no remainder; the first axis
// is what is left.
func (t *Torus) Distance(a, b Point) int {
	ua, ub, side := uint32(a), uint32(b), uint32(t.side)
	d := 0
	for axis := t.dim - 1; axis > 0; axis-- {
		qa, qb := ua/side, ub/side
		d += t.axisDist(int(ua-qa*side), int(ub-qb*side))
		ua, ub = qa, qb
	}
	return d + t.axisDist(int(ua), int(ub))
}

// axisDist returns the wrapped distance of two coordinates on one axis.
func (t *Torus) axisDist(a, b int) int {
	d := a - b
	if d < 0 {
		d = -d
	}
	if alt := t.side - d; alt < d {
		return alt
	}
	return d
}

// offsetAxis returns the point reached from p by moving delta steps
// (wrapping) along the given axis index.
func (t *Torus) offsetAxis(p Point, axis, delta int) Point {
	c := t.Coord(p, axis)
	nc := (c + delta) % t.side
	if nc < 0 {
		nc += t.side
	}
	return p + Point((nc-c)*t.stride[axis])
}

// Step returns the point one grid step along signed axis direction
// dir ∈ {±1, …, ±Dim}; tori wrap, so it succeeds for every valid dir.
func (t *Torus) Step(p Point, dir int) (Point, bool) {
	return t.Offset(p, dir, 1)
}

// Offset returns the point delta steps along signed axis direction dir.
func (t *Torus) Offset(p Point, dir, delta int) (Point, bool) {
	axis := dir
	if axis < 0 {
		axis = -axis
	}
	if axis < 1 || axis > t.dim {
		return 0, false
	}
	if dir < 0 {
		delta = -delta
	}
	return t.offsetAxis(p, axis-1, delta), true
}

// Name returns "torus<d>d", e.g. "torus2d".
func (t *Torus) Name() string { return fmt.Sprintf("torus%dd", t.dim) }

// axisCount returns how many residues on one axis lie at wrapped
// distance k from a fixed coordinate: 1 at distance 0, 2 for
// 0 < k < side/2, and 1 at the antipode when side is even.
func (t *Torus) axisCount(k int) int {
	switch {
	case k == 0:
		return 1
	case 2*k < t.side:
		return 2
	case 2*k == t.side:
		return 1
	default:
		return 0
	}
}
