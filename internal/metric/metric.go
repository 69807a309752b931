// Package metric defines the metric spaces into which the overlay
// embeds resources and nodes (§2 of the paper), generalized to
// arbitrary dimension (§7's first direction for future work).
//
// The paper's analysis lives on a one-dimensional space: nodes occupy
// grid points of a real line (Line) or of a circle (Ring, distances
// measured along the circumference, as in Chord). Torus lifts the same
// structure to d dimensions: side^d grid points under wrapped L1
// (Manhattan) distance, the space of Kleinberg's small-world
// construction when d = 2.
//
// Points are identified with integers in [0, Size); a Space knows how
// to measure distances, walk the grid (Step/Offset — the short-link
// structure), and sample long-link targets from the inverse power-law
// family (NewLinkSampler), which is everything the graph, routing, and
// construction layers need. All of them are therefore
// dimension-agnostic: the same pipeline builds and routes 1-D rings and
// d-D tori. Greedy routing measures through Kernel, which scores a
// point against a set decoded once into per-axis coordinates.
package metric

import (
	"fmt"
	"math"
)

// Point identifies a grid point of a metric space. For one-dimensional
// spaces it is the coordinate itself; a Torus packs coordinates
// lexicographically (for d=2: x*side+y).
type Point int

// Space is a finite metric space over grid points [0, Size). It is the
// single interface behind which every space — the paper's 1-D line and
// ring, and the d-dimensional torus of §7 — looks identical to the
// graph construction, routing, failure, and simulation layers.
type Space interface {
	// Size returns the number of grid points.
	Size() int
	// Dim returns the dimension d: grid points have up to 2d grid
	// neighbours, one per signed axis direction.
	Dim() int
	// Distance returns the metric distance between two points.
	Distance(a, b Point) int
	// Contains reports whether p is a valid point of the space.
	Contains(p Point) bool
	// Step returns the point one grid step from p along the signed
	// axis direction dir ∈ {±1, …, ±Dim} (+a steps axis a forward, −a
	// backward), and whether such a point exists (a line has
	// boundaries; rings and tori wrap).
	Step(p Point, dir int) (Point, bool)
	// Offset returns the point delta grid steps from p along the
	// signed axis direction dir, and whether it exists. A negative
	// delta reverses the direction.
	Offset(p Point, dir, delta int) (Point, bool)
	// NewLinkSampler returns a sampler drawing long-link targets v ≠ p
	// with Pr[v] ∝ d(p, v)^(−exponent) — the inverse power-law family
	// of §4.3; exponent Dim is the harmonic (routing-optimal) member.
	NewLinkSampler(exponent float64) (LinkSampler, error)
	// Name returns a short identifier used in experiment output.
	Name() string
}

// Line is the paper's primary space: points 0..n-1 on the real line with
// d(a, b) = |a − b|. A line has boundaries, which makes one-sided greedy
// routing natural near them (§4.2.1).
type Line struct {
	n int
}

// NewLine returns a line with n grid points. It returns an error if
// n < 1 or n > MaxInt32, the point range every space shares.
func NewLine(n int) (*Line, error) {
	if n < 1 || n > math.MaxInt32 {
		return nil, fmt.Errorf("metric: line needs 1 <= n <= %d, got %d", math.MaxInt32, n)
	}
	return &Line{n: n}, nil
}

// Size returns the number of grid points.
func (l *Line) Size() int { return l.n }

// Dim returns 1.
func (l *Line) Dim() int { return 1 }

// Contains reports whether p lies on the line.
func (l *Line) Contains(p Point) bool { return p >= 0 && int(p) < l.n }

// Distance returns |a − b|.
func (l *Line) Distance(a, b Point) int {
	d := int(a) - int(b)
	if d < 0 {
		return -d
	}
	return d
}

// Name returns "line".
func (l *Line) Name() string { return "line" }

// Ring is the circular variant: n points on a circle with distance
// measured along the shorter arc, as in Chord's identifier circle. The
// ring has no boundary, so two-sided greedy routing is the natural
// model.
type Ring struct {
	n int
}

// NewRing returns a ring with n grid points. It returns an error if
// n < 1 or n > MaxInt32, the point range every space shares.
func NewRing(n int) (*Ring, error) {
	if n < 1 || n > math.MaxInt32 {
		return nil, fmt.Errorf("metric: ring needs 1 <= n <= %d, got %d", math.MaxInt32, n)
	}
	return &Ring{n: n}, nil
}

// Size returns the number of grid points.
func (r *Ring) Size() int { return r.n }

// Dim returns 1.
func (r *Ring) Dim() int { return 1 }

// Contains reports whether p lies on the ring.
func (r *Ring) Contains(p Point) bool { return p >= 0 && int(p) < r.n }

// Distance returns min(|a−b|, n−|a−b|).
func (r *Ring) Distance(a, b Point) int {
	d := int(a) - int(b)
	if d < 0 {
		d = -d
	}
	if alt := r.n - d; alt < d {
		return alt
	}
	return d
}

// Name returns "ring".
func (r *Ring) Name() string { return "ring" }

// Add returns the point at offset delta clockwise from p (mod n).
func (r *Ring) Add(p Point, delta int) Point {
	v := (int(p) + delta) % r.n
	if v < 0 {
		v += r.n
	}
	return Point(v)
}

// ClockwiseDistance returns the distance travelling only clockwise from
// a to b (the one-sided distance Chord uses).
func (r *Ring) ClockwiseDistance(a, b Point) int {
	d := (int(b) - int(a)) % r.n
	if d < 0 {
		d += r.n
	}
	return d
}

// Kernel measures distances to a decoded point set: the members'
// coordinates stored flat, Dim int32s each, so scoring a candidate
// against a set decodes the candidate once and no member ever. It is
// the greedy step's objective over a replica set (package route); every
// space bounds its size by MaxInt32, so coordinates fit an int32 and
// packed points a uint32. Line and Ring are the one-axis cases, without
// and with wrap; Torus wraps every axis.
type Kernel struct {
	dim  int
	side uint32 // the radix packed points carry each axis in (unused in one dimension)
	wrap int    // an axis difference d counts min(d, wrap−d); a line never wraps
}

// KernelOf returns the kernel of one of this package's spaces. It
// panics on any other Space.
func KernelOf(s Space) Kernel {
	switch s := s.(type) {
	case *Line:
		return Kernel{dim: 1, wrap: math.MaxInt}
	case *Ring:
		return Kernel{dim: 1, wrap: s.n}
	case *Torus:
		return Kernel{dim: s.dim, side: uint32(s.side), wrap: s.side}
	}
	panic(fmt.Sprintf("metric: no distance kernel for %T", s))
}

// Dim returns the coordinates each member of a decoded set takes.
func (k Kernel) Dim() int { return k.dim }

// Append appends p's Dim coordinates to a decoded set.
func (k Kernel) Append(set []int32, p Point) []int32 {
	set = append(set, make([]int32, k.dim)...)
	c, u := set[len(set)-k.dim:], uint32(p)
	for axis := k.dim - 1; axis > 0; axis-- {
		q := u / k.side
		c[axis], u = int32(u-q*k.side), q
	}
	c[0] = int32(u)
	return set
}

// Nearest returns the distance from p to the nearest member of a
// decoded set — the minimum of Space.Distance over the members — or
// MaxInt for an empty set. It peels p's coordinates as Torus.Distance
// does, from the last axis up with one 32-bit division each, once per
// member in general and once per call on the two-axis torus, whose
// member loop is branchless.
func (k Kernel) Nearest(p Point, set []int32) int {
	best := math.MaxInt
	if k.dim == 2 {
		u := uint32(p)
		q := u / k.side
		x, y := int(q), int(u-q*k.side)
		for ; len(set) >= 2; set = set[2:] {
			best = min(best, k.axis(x, set[0])+k.axis(y, set[1]))
		}
		return best
	}
	for ; len(set) >= k.dim; set = set[k.dim:] {
		u, d := uint32(p), 0
		for axis := k.dim - 1; axis > 0; axis-- {
			q := u / k.side
			d += k.axis(int(u-q*k.side), set[axis])
			u = q
		}
		best = min(best, d+k.axis(int(u), set[0]))
	}
	return best
}

// axis returns the wrapped distance of two coordinates on one axis.
func (k Kernel) axis(a int, b int32) int {
	d := a - int(b)
	d = max(d, -d)
	return min(d, k.wrap-d)
}

// Interface compliance checks.
var (
	_ Space = (*Line)(nil)
	_ Space = (*Ring)(nil)
	_ Space = (*Torus)(nil)
)
