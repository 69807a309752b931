package baseline

import (
	"fmt"

	"repro/internal/mathx"
	"repro/internal/metric"
	"repro/internal/rng"
)

// Chord models the Chord DHT of §3 on a fully populated identifier
// circle of n = 2^m points: node p keeps a finger to the first node at
// or after p + 2^(i−1) for i = 1..m, and routes greedily clockwise to
// the farthest finger that does not pass the target. With every
// identifier occupied the i-th finger is exactly p + 2^(i−1), giving
// the textbook O(log n) delivery time.
//
// FailNodes crashes nodes for the fault-tolerance comparison the paper
// motivates in §3: structured systems like Chord make no performance
// guarantees between failures and repair, and nothing here repairs the
// finger tables.
type Chord struct {
	ring *metric.Ring
	dead []bool // nil until FailNodes is called
}

// NewChord returns a Chord instance over 2^m identifiers.
func NewChord(m int) (*Chord, error) {
	if m < 1 || m > 30 {
		return nil, fmt.Errorf("baseline: chord needs m in [1,30], got %d", m)
	}
	ring, err := metric.NewRing(1 << uint(m))
	if err != nil {
		return nil, err
	}
	return &Chord{ring: ring}, nil
}

// Name returns "chord".
func (c *Chord) Name() string { return "chord" }

// Nodes returns 2^m.
func (c *Chord) Nodes() int { return c.ring.Size() }

// Route performs the Chord lookup: repeatedly jump to the farthest
// live finger that does not overshoot the target clockwise. A hop with
// no live admissible finger dead-ends. Every hop strictly shortens the
// clockwise distance, so the loop ends.
func (c *Chord) Route(_ *rng.Source, from, to int) Result {
	cur := metric.Point(from)
	target := metric.Point(to)
	hops := 0
	for cur != target {
		next := cur
		for i := mathx.ILog2(c.ring.ClockwiseDistance(cur, target)); i >= 0; i-- {
			if cand := c.ring.Add(cur, 1<<uint(i)); c.Alive(int(cand)) {
				next = cand
				break
			}
		}
		if next == cur {
			return Result{Delivered: false, Hops: hops, Messages: hops}
		}
		cur = next
		hops++
	}
	return Result{Delivered: true, Hops: hops, Messages: hops}
}

// FailNodes crashes an exact fraction of the live nodes and returns
// the number crashed.
func (c *Chord) FailNodes(fraction float64, src *rng.Source) (int, error) {
	if fraction < 0 || fraction > 1 {
		return 0, fmt.Errorf("baseline: fraction %v outside [0,1]", fraction)
	}
	if c.dead == nil {
		c.dead = make([]bool, c.Nodes())
	}
	live := make([]int, 0, len(c.dead))
	for id, dead := range c.dead {
		if !dead {
			live = append(live, id)
		}
	}
	target := int(fraction * float64(len(live)))
	for i := 0; i < target; i++ {
		j := i + src.Intn(len(live)-i)
		live[i], live[j] = live[j], live[i]
		c.dead[live[i]] = true
	}
	return target, nil
}

// Alive reports whether node id exists and has not crashed.
func (c *Chord) Alive(id int) bool {
	return id >= 0 && id < c.Nodes() && (c.dead == nil || !c.dead[id])
}

var _ Router = (*Chord)(nil)
