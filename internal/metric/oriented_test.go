package metric

import (
	"testing"
	"testing/quick"
)

func TestLineStep(t *testing.T) {
	l, err := NewLine(5)
	if err != nil {
		t.Fatal(err)
	}
	if q, ok := l.Step(2, 1); !ok || q != 3 {
		t.Errorf("Step(2,+1) = %v,%v", q, ok)
	}
	if q, ok := l.Step(2, -1); !ok || q != 1 {
		t.Errorf("Step(2,-1) = %v,%v", q, ok)
	}
	if _, ok := l.Step(4, 1); ok {
		t.Error("stepping off the right boundary should fail")
	}
	if _, ok := l.Step(0, -1); ok {
		t.Error("stepping off the left boundary should fail")
	}
}

func TestRingStepWraps(t *testing.T) {
	r, err := NewRing(5)
	if err != nil {
		t.Fatal(err)
	}
	if q, ok := r.Step(4, 1); !ok || q != 0 {
		t.Errorf("Step(4,+1) = %v,%v", q, ok)
	}
	if q, ok := r.Step(0, -1); !ok || q != 4 {
		t.Errorf("Step(0,-1) = %v,%v", q, ok)
	}
}

func TestLineBetween(t *testing.T) {
	l, err := NewLine(10)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		p, q, t Point
		want    bool
	}{
		{7, 5, 2, true},  // moving left toward 2
		{7, 2, 2, true},  // landing on target
		{7, 1, 2, false}, // overshoot
		{7, 8, 2, false}, // wrong direction
		{7, 7, 2, false}, // staying put
		{2, 5, 7, true},  // moving right
		{2, 7, 7, true},  // landing on target
		{2, 8, 7, false}, // overshoot right
		{2, 1, 7, false}, // wrong direction
		{5, 5, 5, false}, // degenerate
	}
	for _, c := range cases {
		if got := l.Between(c.p, c.q, c.t); got != c.want {
			t.Errorf("line Between(%d,%d,%d) = %v, want %v", c.p, c.q, c.t, got, c.want)
		}
	}
}

func TestRingBetween(t *testing.T) {
	r, err := NewRing(10)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		p, q, t Point
		want    bool
	}{
		{8, 9, 2, true}, // clockwise through the wrap
		{8, 0, 2, true},
		{8, 2, 2, true},  // landing on target
		{8, 3, 2, false}, // overshoot
		{8, 7, 2, false}, // counter-clockwise
		{8, 8, 2, false}, // staying put
	}
	for _, c := range cases {
		if got := r.Between(c.p, c.q, c.t); got != c.want {
			t.Errorf("ring Between(%d,%d,%d) = %v, want %v", c.p, c.q, c.t, got, c.want)
		}
	}
}

// One-sided progress property: if Between(p,q,t) holds, then q is
// strictly closer to t than p is (in the one-sided sense) — on the line
// via |·|, on the ring via clockwise distance.
func TestBetweenImpliesProgressLine(t *testing.T) {
	l, err := NewLine(64)
	if err != nil {
		t.Fatal(err)
	}
	f := func(pp, qq, tt uint16) bool {
		p, q, tp := Point(pp%64), Point(qq%64), Point(tt%64)
		if !l.Between(p, q, tp) {
			return true
		}
		return l.Distance(q, tp) < l.Distance(p, tp)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBetweenImpliesProgressRing(t *testing.T) {
	r, err := NewRing(64)
	if err != nil {
		t.Fatal(err)
	}
	f := func(pp, qq, tt uint16) bool {
		p, q, tp := Point(pp%64), Point(qq%64), Point(tt%64)
		if !r.Between(p, q, tp) {
			return true
		}
		return r.ClockwiseDistance(q, tp) < r.ClockwiseDistance(p, tp)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestStepAdjacent(t *testing.T) {
	r, err := NewRing(97)
	if err != nil {
		t.Fatal(err)
	}
	l, err := NewLine(97)
	if err != nil {
		t.Fatal(err)
	}
	for _, sp := range []Oriented{r, l} {
		f := func(pp uint16, dd bool) bool {
			p := Point(pp % 97)
			dir := 1
			if dd {
				dir = -1
			}
			q, ok := sp.Step(p, dir)
			if !ok {
				return true
			}
			return sp.Distance(p, q) == 1
		}
		if err := quick.Check(f, nil); err != nil {
			t.Errorf("%s: %v", sp.Name(), err)
		}
	}
}
