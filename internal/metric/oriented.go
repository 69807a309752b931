package metric

// Oriented is implemented by spaces with a global linear orientation —
// the 1-D line and ring. Between supplies the orientation test
// one-sided greedy routing needs (§4.2.1: a one-sided router never
// traverses a link that would take it past its target), and
// ForwardDistance is the one-directional distance the one-sided greedy
// rule minimizes (clockwise arc length on a ring, as in Chord; plain
// distance on a line, where Between already constrains the direction).
// Higher-dimensional tori have no such orientation and do not implement
// this interface, so one-sided routing is a 1-D-only policy.
type Oriented interface {
	Space
	// Between reports whether q lies on the segment travelled when
	// routing from p toward t without passing t — excluding p itself,
	// including t. One-sided greedy routing restricts its candidate
	// next hops to points with Between(p, q, t) == true.
	Between(p, q, t Point) bool
	// ForwardDistance returns the one-directional distance from a to b.
	ForwardDistance(a, b Point) int
}

// Step on a line fails at the boundaries. Only the single axis ±1 is
// valid.
func (l *Line) Step(p Point, dir int) (Point, bool) {
	return l.Offset(p, dir, 1)
}

// Offset on a line moves delta steps along ±1, failing when the result
// leaves the line.
func (l *Line) Offset(p Point, dir, delta int) (Point, bool) {
	if dir != 1 && dir != -1 {
		return 0, false
	}
	q := Point(int(p) + dir*delta)
	if !l.Contains(q) {
		return 0, false
	}
	return q, true
}

// Between on a line: q strictly between p and t, or equal to t.
func (l *Line) Between(p, q, t Point) bool {
	if q == p {
		return false
	}
	if p <= t {
		return p < q && q <= t
	}
	return t <= q && q < p
}

// ForwardDistance on a line is the plain distance: Between already
// restricts one-sided candidates to the target's side.
func (l *Line) ForwardDistance(a, b Point) int { return l.Distance(a, b) }

// Step on a ring always succeeds, wrapping modulo n. Only the single
// axis ±1 is valid.
func (r *Ring) Step(p Point, dir int) (Point, bool) {
	return r.Offset(p, dir, 1)
}

// Offset on a ring wraps modulo n.
func (r *Ring) Offset(p Point, dir, delta int) (Point, bool) {
	if dir != 1 && dir != -1 {
		return 0, false
	}
	return r.Add(p, dir*delta), true
}

// Between on a ring: one-sided routing travels only clockwise (as in
// Chord); q qualifies when it lies strictly inside the clockwise arc
// from p to t, or equals t.
func (r *Ring) Between(p, q, t Point) bool {
	if q == p {
		return false
	}
	return r.ClockwiseDistance(p, q) <= r.ClockwiseDistance(p, t)
}

// ForwardDistance on a ring is the clockwise arc length.
func (r *Ring) ForwardDistance(a, b Point) int { return r.ClockwiseDistance(a, b) }

var (
	_ Oriented = (*Line)(nil)
	_ Oriented = (*Ring)(nil)
)
