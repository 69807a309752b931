package construct

import (
	"testing"
	"testing/quick"

	"repro/internal/metric"
	"repro/internal/rng"
)

// Property: under any random churn script, the builder maintains its
// invariants — no node exceeds the link budget, no up link dangles at a
// departed node, the graph's reverse index is exact, and alive counts
// match membership.
func TestBuilderInvariantsProperty(t *testing.T) {
	const n, links = 64, 4
	f := func(seed uint64, script []byte) bool {
		sp, err := metric.NewRing(n)
		if err != nil {
			return false
		}
		b, err := NewBuilder(sp, Config{Links: links}, rng.New(seed))
		if err != nil {
			return false
		}
		present := map[metric.Point]bool{}
		// Seed a few nodes so removals have targets.
		for _, i := range rng.New(seed).Perm(n)[:8] {
			if err := b.Add(metric.Point(i)); err != nil {
				return false
			}
			present[metric.Point(i)] = true
		}
		for _, op := range script {
			p := metric.Point(int(op) % n)
			if present[p] {
				if len(present) <= 1 {
					continue
				}
				if err := b.Remove(p); err != nil {
					return false
				}
				delete(present, p)
			} else {
				if err := b.Add(p); err != nil {
					return false
				}
				present[p] = true
			}
		}
		g := b.Graph()
		if g.AliveCount() != len(present) || g.CheckReverseIndex() != nil {
			return false
		}
		for i := 0; i < n; i++ {
			pt := metric.Point(i)
			if g.Exists(pt) != present[pt] {
				return false
			}
			if len(g.Long(pt)) > links {
				return false
			}
			for _, lk := range g.Long(pt) {
				if lk.Up && !present[lk.To] {
					return false // dangling up link
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: the in-degree soliciting never pushes a node's out-degree
// above the budget, for either replacement strategy.
func TestSolicitRespectsBudgetProperty(t *testing.T) {
	for _, strat := range []ReplacementStrategy{InverseDistance, Oldest} {
		strat := strat
		f := func(seed uint64) bool {
			sp, err := metric.NewRing(128)
			if err != nil {
				return false
			}
			b, err := NewBuilder(sp, Config{Links: 3, Strategy: strat}, rng.New(seed))
			if err != nil {
				return false
			}
			for _, i := range rng.New(seed ^ 0xabc).Perm(128) {
				if err := b.Add(metric.Point(i)); err != nil {
					return false
				}
			}
			g := b.Graph()
			if g.CheckReverseIndex() != nil {
				return false
			}
			for i := 0; i < 128; i++ {
				if len(g.Long(metric.Point(i))) > 3 {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
			t.Errorf("strategy %v: %v", strat, err)
		}
	}
}
