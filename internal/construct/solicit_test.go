package construct

import (
	"slices"
	"testing"

	"repro/internal/metric"
	"repro/internal/rng"
)

// The §5 rule, solicitRule, has one caller: Builder.solicit. Fed the
// same solicitors from the same seed, the bare rule (applied to a plain
// slice) and a Builder's node 0 top up alike below budget, then accept
// and decline alike and redirect the same slot. Under Oldest the
// acceptance draw is still the rule's and the Builder's own pick is the
// longest-held link.
func TestSolicitRuleMatchesBuilder(t *testing.T) {
	const n = 64
	near := []metric.Point{1, 63, 2, 62, 1, 3, 61, 2, 1, 63, 4, 2, 60, 1, 62, 3}
	mixed := []metric.Point{9, 40, 17, 2, 33, 5, 63, 21, 1, 50, 3, 12, 62, 31, 7, 2, 45, 1}
	for _, tc := range []struct {
		name       string
		strategy   ReplacementStrategy
		links      int
		seed       uint64
		solicitors []metric.Point
	}{
		{"top-up only", InverseDistance, 8, 1, mixed[:8]},
		{"near solicitors, full set", InverseDistance, 3, 2, near},
		{"mixed distances", InverseDistance, 4, 3, mixed},
		{"self and repeats", InverseDistance, 2, 4, []metric.Point{0, 5, 5, 0, 5, 1, 1, 0, 63}},
		{"zero budget declines", InverseDistance, 0, 5, near[:4]},
		{"oldest link", Oldest, 3, 6, near},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ring, err := metric.NewRing(n)
			if err != nil {
				t.Fatal(err)
			}
			b, err := NewBuilder(ring, Config{Links: tc.links, Strategy: tc.strategy}, rng.New(tc.seed))
			if err != nil {
				t.Fatal(err)
			}
			for p := 0; p < n; p++ {
				if err := b.Graph().AddNode(metric.Point(p)); err != nil {
					t.Fatal(err)
				}
			}
			src := rng.New(tc.seed)
			var model []metric.Point // the bare rule's link set …
			var held []int           // … and the step each link was installed at
			accepts, redirects := 0, 0
			for step, v := range tc.solicitors {
				accepted := false
				if v != 0 { // no caller solicits a node for itself
					dists := make([]int, len(model))
					for i, to := range model {
						dists[i] = ring.Distance(0, to)
					}
					var slot int
					slot, accepted = solicitRule(src, tc.strategy, tc.links, ring.Dim(), ring.Distance(0, v), dists)
					if accepted && slot < 0 {
						for i := range held {
							if slot < 0 || held[i] < held[slot] {
								slot = i
							}
						}
					}
					switch {
					case !accepted:
					case slot == len(model):
						model, held = append(model, v), append(held, step)
					default:
						model[slot], held[slot] = v, step
						redirects++
					}
				}
				if accepted {
					accepts++
				}

				if err := b.solicit(0, v); err != nil {
					t.Fatal(err)
				}
				var built []metric.Point
				for _, lk := range b.Graph().Long(0) {
					built = append(built, lk.To)
				}
				if !slices.Equal(built, model) {
					t.Fatalf("step %d (solicitor %d): Builder holds %v, the rule %v", step, v, built, model)
				}
			}
			if len(model) > tc.links {
				t.Errorf("budget %d exceeded: %v", tc.links, model)
			}
			if len(tc.solicitors) > 2*tc.links && tc.links > 0 && (redirects == 0 || accepts == len(tc.solicitors)) {
				t.Errorf("%d accepts, %d redirects of %d: the case exercises one branch only", accepts, redirects, len(tc.solicitors))
			}
		})
	}
}

// ftrmark's construct.add_us probe crosses Builder.solicit: apart from
// the graph's own link bookkeeping on an accepted redirect, a call
// allocates nothing — the distances go through the Builder's scratch.
func TestSolicitDoesNotAllocate(t *testing.T) {
	ring, err := metric.NewRing(1 << 12)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewBuilder(ring, Config{Links: 4}, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []metric.Point{0, 1, 2, 4094, 4095, 2048} {
		if err := b.Graph().AddNode(p); err != nil {
			t.Fatal(err)
		}
	}
	for _, to := range []metric.Point{1, 2, 4094, 4095} {
		if err := b.solicit(0, to); err != nil { // below budget: tops up
			t.Fatal(err)
		}
	}
	// The antipode's weight is 1/2048 against a mass of 3: it is declined
	// (every time, from this seed), so the call is the rule and nothing else.
	if allocs := testing.AllocsPerRun(200, func() { _ = b.solicit(0, 2048) }); allocs != 0 {
		t.Errorf("a declined solicit allocates %v times", allocs)
	}
	for _, lk := range b.Graph().Long(0) {
		if lk.To == 2048 {
			t.Fatal("the antipode was accepted: the run measured the graph's bookkeeping too")
		}
	}
}
