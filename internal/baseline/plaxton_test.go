package baseline

import (
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func TestPlaxtonValidation(t *testing.T) {
	if _, err := NewPlaxton(1, 4); err == nil {
		t.Error("base 1 should error")
	}
	if _, err := NewPlaxton(4, 0); err == nil {
		t.Error("k=0 should error")
	}
	if _, err := NewPlaxton(2, 40); err == nil {
		t.Error("2^40 ids should error")
	}
}

func TestPlaxtonBasics(t *testing.T) {
	p, err := NewPlaxton(4, 5) // 1024 ids
	if err != nil {
		t.Fatal(err)
	}
	if p.Name() != "plaxton" || p.Nodes() != 1024 {
		t.Error("accessors wrong")
	}
	if p.b != 4 || p.k != 5 {
		t.Errorf("base %d, digits %d, want 4 and 5", p.b, p.k)
	}
}

func TestPlaxtonAlwaysDeliversWithinK(t *testing.T) {
	p, err := NewPlaxton(4, 6) // 4096 ids
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(1)
	f := func(a, b uint16) bool {
		from := int(a) % p.Nodes()
		to := int(b) % p.Nodes()
		res := p.Route(src, from, to)
		return res.Delivered && res.Hops <= 6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPlaxtonHopsAreDigitDistance(t *testing.T) {
	p, err := NewPlaxton(10, 3) // decimal ids 000..999
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(2)
	cases := []struct{ from, to, want int }{
		{123, 123, 0},
		{123, 124, 1}, // one digit differs
		{123, 153, 1},
		{123, 456, 3}, // all digits differ
		{100, 900, 1},
		{0, 999, 3},
	}
	for _, c := range cases {
		res := p.Route(src, c.from, c.to)
		if !res.Delivered || res.Hops != c.want {
			t.Errorf("route %d->%d = %+v, want %d hops", c.from, c.to, res, c.want)
		}
	}
}

func TestPlaxtonSelfRoute(t *testing.T) {
	p, err := NewPlaxton(2, 8)
	if err != nil {
		t.Fatal(err)
	}
	res := p.Route(rng.New(3), 77, 77)
	if !res.Delivered || res.Hops != 0 {
		t.Errorf("self route = %+v", res)
	}
}
