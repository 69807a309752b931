package graph

import (
	"reflect"
	"testing"

	"repro/internal/metric"
	"repro/internal/rng"
)

// incrementalBuild is the link-by-link build populateLinks replaced,
// kept as its reference: the space's own sampler and the public AddLong
// (which grows each table and indexes each link as it goes), in
// populateLinks' loop order, with BuildIdealWithPresence's redirect
// when a presence mask is given.
func incrementalBuild(t *testing.T, sp metric.Space, cfg BuildConfig, present []bool, src *rng.Source) *Graph {
	t.Helper()
	g := New(sp)
	if present != nil {
		var err error
		if g, err = NewWithPresence(sp, present); err != nil {
			t.Fatal(err)
		}
	}
	sampler, err := sp.NewLinkSampler(cfg.Exponent)
	if err != nil {
		t.Fatal(err)
	}
	add := func(p, to metric.Point) {
		if err := g.AddLong(p, to); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < g.Size(); i++ {
		p := metric.Point(i)
		if !g.Exists(p) {
			continue
		}
		for k := 0; k < cfg.Links; k++ {
			linked := false
			for attempt := 0; attempt < 32 && !linked; attempt++ {
				target, ok := sampler.Sample(p, src)
				if !ok {
					break
				}
				if present != nil {
					if target, ok = g.NearestExisting(target); !ok || target == p {
						continue
					}
				}
				add(p, target)
				linked = true
			}
			if !linked && g.AliveCount() > 1 {
			fallback:
				for axis := 1; axis <= sp.Dim(); axis++ {
					for _, dir := range [2]int{+axis, -axis} {
						if q, ok := g.ShortNeighbor(p, dir); ok {
							add(p, q)
							break fallback
						}
					}
				}
			}
		}
	}
	return g
}

// buildSpaces are the four geometries at a size where a few hundred
// nodes share targets, so in-link order is exercised.
func buildSpaces(t *testing.T) []metric.Space {
	t.Helper()
	t2, err := metric.NewTorus(12, 2)
	if err != nil {
		t.Fatal(err)
	}
	t3, err := metric.NewTorus(5, 3)
	if err != nil {
		t.Fatal(err)
	}
	return []metric.Space{mustRing(t, 200), mustLine(t, 200), t2, t3}
}

// The slab build must be the incremental build: same links with the
// same sequence numbers in the same slots, the same neighbour
// enumeration in the same order (in-links included — greedy tie-breaks
// follow it), and an exact reverse index.
func TestSlabBuildMatchesIncrementalAddLong(t *testing.T) {
	for _, sp := range buildSpaces(t) {
		holes := make([]bool, sp.Size())
		for i := range holes {
			holes[i] = i%5 != 2
		}
		for _, present := range [][]bool{nil, holes} {
			for _, cfg := range []BuildConfig{PaperConfigFor(sp, 5), {Links: 3, Exponent: 0.5}} {
				var got *Graph
				var err error
				if present == nil {
					got, err = BuildIdeal(sp, cfg, rng.New(41))
				} else {
					got, err = BuildIdealWithPresence(sp, cfg, present, rng.New(41))
				}
				if err != nil {
					t.Fatal(err)
				}
				want := incrementalBuild(t, sp, cfg, present, rng.New(41))
				if err := got.CheckReverseIndex(); err != nil {
					t.Fatalf("%s %+v: %v", sp.Name(), cfg, err)
				}
				for i := 0; i < sp.Size(); i++ {
					p := metric.Point(i)
					if g, w := got.Long(p), want.Long(p); !(len(g) == 0 && len(w) == 0) && !reflect.DeepEqual(g, w) {
						t.Fatalf("%s %+v: Long(%d) = %v, incremental build has %v", sp.Name(), cfg, p, g, w)
					}
					if g, w := got.AppendNeighbors(nil, p, true), want.AppendNeighbors(nil, p, true); !reflect.DeepEqual(g, w) {
						t.Fatalf("%s %+v: neighbours of %d = %v, incremental build has %v", sp.Name(), cfg, p, g, w)
					}
				}
			}
		}
	}
}

// A node's link table and index entries are slices of slabs it shares
// with its neighbours in point order; growing, redirecting or
// rebuilding one node's table must leave theirs alone.
func TestSlabNeighboursUntouchedByMutation(t *testing.T) {
	for _, sp := range buildSpaces(t) {
		g, err := BuildIdeal(sp, PaperConfigFor(sp, 4), rng.New(5))
		if err != nil {
			t.Fatal(err)
		}
		n := sp.Size()
		snapshot := func() [][]Link {
			all := make([][]Link, n)
			for i := range all {
				all[i] = append([]Link(nil), g.Long(metric.Point(i))...)
			}
			return all
		}
		// othersUnchanged: only p's own table may differ from before.
		othersUnchanged := func(step string, p metric.Point, before [][]Link) {
			t.Helper()
			for i := range before {
				if q := metric.Point(i); q != p && !reflect.DeepEqual(before[i], append([]Link(nil), g.Long(q)...)) {
					t.Fatalf("%s: %s at %d changed Long(%d): %v -> %v", sp.Name(), step, p, q, before[i], g.Long(q))
				}
			}
			if err := checkNeighborInvariants(g); err != nil {
				t.Fatalf("%s: after %s at %d: %v", sp.Name(), step, p, err)
			}
		}
		for _, p := range []metric.Point{0, 1, metric.Point(n / 2), metric.Point(n - 1)} {
			a, b := metric.Point((int(p)+3)%n), metric.Point((int(p)+7)%n)

			before := snapshot()
			for k := 0; k < 3; k++ { // past the slab capacity, then past the first regrowth
				if err := g.AddLong(p, a); err != nil {
					t.Fatal(err)
				}
			}
			othersUnchanged("AddLong", p, before)

			before = snapshot()
			if err := g.ReplaceLong(p, 0, b); err != nil {
				t.Fatal(err)
			}
			othersUnchanged("ReplaceLong", p, before)
		}
		// Rebuild a node from nothing. RemoveNode takes its in-links
		// down in their owners' tables; everything else stays.
		for _, p := range []metric.Point{2, metric.Point(n - 2)} {
			if err := g.RemoveNode(p); err != nil {
				t.Fatal(err)
			}
			before := snapshot()
			if err := g.AddNode(p); err != nil {
				t.Fatal(err)
			}
			for k := 0; k < 6; k++ {
				if err := g.AddLong(p, metric.Point((int(p)+5+k)%n)); err != nil {
					t.Fatal(err)
				}
			}
			othersUnchanged("RemoveNode+AddNode+AddLong", p, before)
		}
	}
}

// TestBuildIdealAllocs guards the slab: a build allocates a fixed
// handful of objects whatever the size, not a few per node.
func TestBuildIdealAllocs(t *testing.T) {
	for _, n := range []int{1024, 8192} {
		sp, cfg, src := mustRing(t, n), PaperConfig(10), rng.New(1)
		allocs := testing.AllocsPerRun(3, func() {
			if _, err := BuildIdeal(sp, cfg, src); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 16 {
			t.Errorf("BuildIdeal on a %d-ring made %v allocations, want at most 16", n, allocs)
		}
	}
}

// addLongDeterministic is the link-by-link build buildAtDistances
// replaced, kept as its reference: AddLong (which grows each table and
// indexes each link as it goes) in the same loop order.
func addLongDeterministic(t *testing.T, sp metric.Space, dists []int) *Graph {
	t.Helper()
	g := New(sp)
	for i := 0; i < sp.Size(); i++ {
		p := metric.Point(i)
		for _, d := range dists {
			for axis := 1; axis <= sp.Dim(); axis++ {
				for _, dir := range [2]int{+axis, -axis} {
					if q, ok := sp.Offset(p, dir, d); ok && q != p {
						if err := g.AddLong(p, q); err != nil {
							t.Fatal(err)
						}
					}
				}
			}
		}
	}
	return g
}

// The one-slab deterministic builds must be their link-by-link
// reference: the same links with the same sequence numbers in the same
// slots, the same neighbour order, an exact reverse index, and every
// table at its exact length, so a later AddLong moves that table alone.
func TestDeterministicSlabMatchesAddLong(t *testing.T) {
	for _, sp := range buildSpaces(t) {
		n := sp.Size()
		for _, b := range []int{2, 3, 7} {
			var every, powers []int
			for step := 1; step < n; step *= b {
				for j := 1; j < b && j*step < n; j++ {
					every = append(every, j*step)
				}
				powers = append(powers, step)
				if step > n/b {
					break
				}
			}
			det, err := BuildDeterministic(sp, b)
			if err != nil {
				t.Fatal(err)
			}
			pow, err := BuildDeterministicPowers(sp, b)
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range []struct {
				name string
				got  *Graph
				want *Graph
			}{
				{"BuildDeterministic", det, addLongDeterministic(t, sp, every)},
				{"BuildDeterministicPowers", pow, addLongDeterministic(t, sp, powers)},
			} {
				if err := c.got.CheckReverseIndex(); err != nil {
					t.Fatalf("%s %s b=%d: %v", c.name, sp.Name(), b, err)
				}
				for i := 0; i < n; i++ {
					p := metric.Point(i)
					g, w := c.got.Long(p), c.want.Long(p)
					if !reflect.DeepEqual(g, w) {
						t.Fatalf("%s %s b=%d: Long(%d) = %v, AddLong build has %v", c.name, sp.Name(), b, p, g, w)
					}
					if cap(g) != len(g) {
						t.Fatalf("%s %s b=%d: Long(%d) has capacity %d for %d links", c.name, sp.Name(), b, p, cap(g), len(g))
					}
					if g, w := c.got.AppendNeighbors(nil, p, true), c.want.AppendNeighbors(nil, p, true); !reflect.DeepEqual(g, w) {
						t.Fatalf("%s %s b=%d: neighbours of %d = %v, AddLong build has %v", c.name, sp.Name(), b, p, g, w)
					}
				}
			}
		}
	}
}

// TestReplaceLongSpareSlotAllocs pins the spare in-link slot indexLinks
// carves for every node: a built graph's in-link lists each have room
// for one more entry, so a repair redraw (ReplaceLong) into a node whose
// spare is free appends in place. With exact capacity every such redraw
// moved its target's list to the heap (1 227 allocations a churn_pit
// run). Redirecting one link to a target it has not reached before, and
// back, allocates nothing.
func TestReplaceLongSpareSlotAllocs(t *testing.T) {
	for _, sp := range buildSpaces(t) {
		g, err := BuildIdeal(sp, PaperConfigFor(sp, 4), rng.New(6))
		if err != nil {
			t.Fatal(err)
		}
		for i := range g.nodes {
			if rev := g.nodes[i].rev; cap(rev) != len(rev)+1 {
				t.Fatalf("%s: node %d's in-links have capacity %d for %d entries, want one spare", sp.Name(), i, cap(rev), len(rev))
			}
		}
		p, old := metric.Point(0), g.Long(0)[0].To
		redraw := func(to metric.Point) {
			if err := g.ReplaceLong(p, 0, to); err != nil {
				t.Fatal(err)
			}
		}
		next := metric.Point(1)
		avg := testing.AllocsPerRun(50, func() {
			if next == old {
				next++
			}
			redraw(next)
			redraw(old)
			next++
		})
		if avg != 0 {
			t.Errorf("%s: a redraw into a free spare slot and back allocates %.2f times, want 0", sp.Name(), avg)
		}
		if err := g.CheckReverseIndex(); err != nil {
			t.Fatalf("%s: %v", sp.Name(), err)
		}
	}
}
