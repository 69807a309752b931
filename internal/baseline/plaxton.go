package baseline

import (
	"fmt"

	"repro/internal/mathx"
	"repro/internal/rng"
)

// Plaxton models the Plaxton/Tapestry scheme of §3: identifiers are
// digit strings in base b, and a message is forwarded deterministically
// to a node whose identifier matches one more trailing digit of the
// target per hop (suffix routing). With all n = b^k identifiers
// occupied, the node fixing the next digit always exists, so every
// lookup takes at most k = log_b n hops and each node keeps a routing
// table of (b−1)·log_b n entries.
type Plaxton struct {
	b, k, n int
}

// NewPlaxton returns a Plaxton mesh over b^k identifiers.
func NewPlaxton(b, k int) (*Plaxton, error) {
	if b < 2 {
		return nil, fmt.Errorf("baseline: plaxton base must be >= 2, got %d", b)
	}
	if k < 1 {
		return nil, fmt.Errorf("baseline: plaxton needs k >= 1 digits, got %d", k)
	}
	n := mathx.IPow(b, k)
	if n <= 0 || n > 1<<28 {
		return nil, fmt.Errorf("baseline: plaxton b^k = %d out of range", n)
	}
	return &Plaxton{b: b, k: k, n: n}, nil
}

// Name returns "plaxton".
func (p *Plaxton) Name() string { return "plaxton" }

// Nodes returns b^k.
func (p *Plaxton) Nodes() int { return p.n }

// Route forwards by fixing one trailing base-b digit per hop: the next
// hop keeps the already-matched suffix and adopts the target's next
// digit. Hops = number of positions where the identifiers disagree.
func (p *Plaxton) Route(_ *rng.Source, from, to int) Result {
	cur := from
	hops := 0
	pow := 1
	for i := 0; i < p.k; i++ {
		curDigit := (cur / pow) % p.b
		toDigit := (to / pow) % p.b
		if curDigit != toDigit {
			// Replace digit i of cur with the target's digit —
			// exactly the neighbour the routing table stores.
			cur += (toDigit - curDigit) * pow
			hops++
		}
		pow *= p.b
	}
	if cur != to {
		return Result{Delivered: false, Hops: hops, Messages: hops}
	}
	return Result{Delivered: true, Hops: hops, Messages: hops}
}

var _ Router = (*Plaxton)(nil)
