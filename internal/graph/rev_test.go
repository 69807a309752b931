package graph

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"repro/internal/metric"
	"repro/internal/rng"
)

// bruteForceInNeighbors scans every node's forward links to find the up
// in-neighbours of p — the ground truth the reverse index must match.
func bruteForceInNeighbors(g *Graph, p metric.Point) map[metric.Point]int {
	in := map[metric.Point]int{}
	for i := 0; i < g.Size(); i++ {
		q := metric.Point(i)
		if !g.Exists(q) || q == p {
			continue
		}
		for _, lk := range g.Long(q) {
			if lk.To == p && lk.Up {
				in[q]++
			}
		}
	}
	return in
}

// referenceNeighbors is the enumeration AppendNeighbors replaced, kept
// as its oracle: it trusts nothing about the reverse index and
// re-validates every entry against the foreign forward link (the slot
// must exist, still point at p, be up, and belong to a present node
// other than p), and it re-checks that an out-link's target is present.
// AppendNeighbors must produce the same sequence with the same
// multiplicities — which also says the index holds no entry the old
// readers would have skipped.
func referenceNeighbors(g *Graph, p metric.Point, in bool) []metric.Point {
	var out []metric.Point
	if !g.inRange(p) || g.flags[p]&flagExists == 0 {
		return out
	}
	for axis := 1; axis <= g.space.Dim(); axis++ {
		neg, okN := g.ShortNeighbor(p, -axis)
		if okN {
			out = append(out, neg)
		}
		if pos, okP := g.ShortNeighbor(p, +axis); okP && (!okN || pos != neg) {
			out = append(out, pos)
		}
	}
	for _, lk := range g.nodes[p].long {
		if lk.Up && g.flags[lk.To]&flagExists != 0 {
			out = append(out, lk.To)
		}
	}
	if !in {
		return out
	}
	for _, ref := range g.nodes[p].rev {
		if !g.inRange(ref.from) || g.flags[ref.from]&flagExists == 0 || ref.from == p {
			continue
		}
		long := g.nodes[ref.from].long
		if ref.idx < len(long) && long[ref.idx].To == p && long[ref.idx].Up {
			out = append(out, ref.from)
		}
	}
	return out
}

// checkNeighborInvariants is the whole contract of the neighbour
// layout after any mutation: the index is exact, the enumeration equals
// the re-validating reference at every point (absent ones included),
// and its in-link part equals a brute-force scan of the forward links.
func checkNeighborInvariants(g *Graph) error {
	if err := g.CheckReverseIndex(); err != nil {
		return err
	}
	for i := 0; i < g.Size(); i++ {
		p := metric.Point(i)
		outs := g.AppendNeighbors(nil, p, false)
		all := g.AppendNeighbors(nil, p, true)
		for in, got := range map[bool][]metric.Point{false: outs, true: all} {
			if want := referenceNeighbors(g, p, in); !slices.Equal(got, want) {
				return fmt.Errorf("node %d (in=%v): AppendNeighbors = %v, reference = %v", p, in, got, want)
			}
		}
		if !g.Exists(p) {
			continue
		}
		got := map[metric.Point]int{}
		for _, q := range all[len(outs):] {
			got[q]++
		}
		want := bruteForceInNeighbors(g, p)
		if len(got) != len(want) {
			return fmt.Errorf("node %d: in-neighbours %v, brute force %v", p, got, want)
		}
		for q, n := range want {
			if got[q] != n {
				return fmt.Errorf("node %d in-neighbour %d: index says %d, truth %d", p, q, got[q], n)
			}
		}
		if n := len(g.nodes[p].rev); n != len(all)-len(outs) {
			return fmt.Errorf("node %d: %d index entries, enumerated %d", p, n, len(all)-len(outs))
		}
	}
	return nil
}

// mutationSpaces are the geometries the mutation test and the fuzz
// target cover: the paper's 1-D spaces and the §7 tori in 2-D and 3-D.
func mutationSpaces(t testing.TB) []metric.Space {
	t.Helper()
	ring, err := metric.NewRing(24)
	if err != nil {
		t.Fatal(err)
	}
	line, err := metric.NewLine(24)
	if err != nil {
		t.Fatal(err)
	}
	t2, err := metric.NewTorus(5, 2)
	if err != nil {
		t.Fatal(err)
	}
	t3, err := metric.NewTorus(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	return []metric.Space{ring, line, t2, t3}
}

// mutationGraph builds the starting point of a mutation sequence: a
// presence mask with every fifth point absent and three sampled links
// per present node.
func mutationGraph(t testing.TB, sp metric.Space, seed uint64) *Graph {
	t.Helper()
	present := make([]bool, sp.Size())
	for i := range present {
		present[i] = i%5 != 2
	}
	g, err := BuildIdealWithPresence(sp, PaperConfigFor(sp, 3), present, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// Graph mutations, one per op code.
const (
	opAddLong = iota
	opReplaceLong
	opSetLongUp
	opFail
	opRevive
	opAddNode
	opRemoveNode
	numOps
)

var errNoTransition = errors.New("node was not in the state to leave")

// mutate applies one mutation decoded from four small integers. The
// mutators reject what the invariants cannot hold (absent endpoints,
// self-links, raising a link into a vacated point), so an error is a
// legal outcome; it is returned for the callers that count successes.
func mutate(g *Graph, op, x, y, z int) error {
	n := g.Size()
	p := metric.Point(x % n)
	slot := 0
	if l := len(g.Long(p)); l > 0 {
		slot = y % l
	}
	switch op % numOps {
	case opAddLong:
		return g.AddLong(p, metric.Point(y%n))
	case opReplaceLong:
		return g.ReplaceLong(p, slot, metric.Point(z%n))
	case opSetLongUp:
		return g.SetLongUp(p, slot, z%2 == 1)
	case opFail:
		if !g.Fail(p) {
			return errNoTransition
		}
	case opRevive:
		if !g.Revive(p) {
			return errNoTransition
		}
	case opAddNode:
		return g.AddNode(p)
	case opRemoveNode:
		return g.RemoveNode(p)
	}
	return nil
}

// The reverse index must stay exact, and the enumeration equal to the
// re-validating reference, after any sequence of AddLong / ReplaceLong /
// SetLongUp / Fail / Revive / AddNode / RemoveNode on every geometry,
// starting from a graph with absent points and going through failed
// links and node churn.
func TestReverseIndexInvariantUnderChurn(t *testing.T) {
	for _, sp := range mutationSpaces(t) {
		g := mutationGraph(t, sp, 77)
		if err := checkNeighborInvariants(g); err != nil {
			t.Fatalf("%s: fresh graph: %v", sp.Name(), err)
		}
		src := rng.New(78)
		var applied [numOps]int
		for step := 0; step < 1500; step++ {
			op := src.Intn(numOps)
			if mutate(g, op, src.Intn(1<<16), src.Intn(1<<16), src.Intn(1<<16)) == nil {
				applied[op]++
			}
			if err := checkNeighborInvariants(g); err != nil {
				t.Fatalf("%s: step %d (op %d): %v", sp.Name(), step, op, err)
			}
		}
		for op, n := range applied {
			if n == 0 {
				t.Errorf("%s: op %d never succeeded; the sequence does not exercise it", sp.Name(), op)
			}
		}
	}
}

// FuzzGraphMutations drives arbitrary mutation sequences: the first
// byte picks the geometry, every following four bytes one mutation.
// After every op the index must be exact, the enumeration must equal
// the reference, and the nearest-node searches and skip-walks, present
// and alive, must agree with theirs at every point.
func FuzzGraphMutations(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{0, opAddLong, 3, 9, 0, opRemoveNode, 9, 0, 0, opSetLongUp, 3, 3, 1, opAddNode, 9, 0, 0})
	f.Add([]byte{1, opSetLongUp, 0, 0, 0, opSetLongUp, 0, 0, 1, opFail, 1, 0, 0, opRevive, 1, 0, 0})
	f.Add([]byte{2, opRemoveNode, 6, 0, 0, opAddNode, 6, 0, 0, opReplaceLong, 0, 1, 6, opAddLong, 6, 0, 0})
	f.Add([]byte{3, opAddNode, 2, 0, 0, opAddLong, 2, 26, 0, opReplaceLong, 26, 0, 2, opRemoveNode, 2, 0, 0})
	spaces := mutationSpaces(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		g := mutationGraph(t, spaces[int(data[0])%len(spaces)], 77)
		for ops := data[1:]; len(ops) >= 4; ops = ops[4:] {
			_ = mutate(g, int(ops[0]), int(ops[1]), int(ops[2]), int(ops[3])) // rejected ops are legal
			if err := checkNeighborInvariants(g); err != nil {
				t.Fatalf("after op %v: %v", ops[:4], err)
			}
			for p := 0; p < g.Size(); p++ {
				if err := checkNearestQueries(g, metric.Point(p)); err != nil {
					t.Fatalf("after op %v: %v", ops[:4], err)
				}
			}
		}
	})
}

// A link into a departed node stays down: SetLongUp refuses to raise it
// while the point is vacant, so a later arrival there does not inherit
// the connection (RemoveNode's promise).
func TestSetLongUpDoesNotResurrectRemovedNode(t *testing.T) {
	sp, err := metric.NewRing(16)
	if err != nil {
		t.Fatal(err)
	}
	g := New(sp)
	if err := g.AddLong(2, 9); err != nil {
		t.Fatal(err)
	}
	if err := g.RemoveNode(9); err != nil {
		t.Fatal(err)
	}
	if err := g.SetLongUp(2, 0, true); err == nil {
		t.Error("SetLongUp raised a link whose target hosts no node")
	}
	if err := g.AddNode(9); err != nil {
		t.Fatal(err)
	}
	for _, q := range g.AppendNeighbors(nil, 9, true) {
		if q == 2 {
			t.Error("re-added node 9 inherited the departed node's in-link from 2")
		}
	}
	for _, q := range g.AppendNeighbors(nil, 2, true) {
		if q == 9 {
			t.Error("node 2's link into the departed node 9 came back up")
		}
	}
	if err := g.CheckReverseIndex(); err != nil {
		t.Error(err)
	}
	// Once a node is there again the slot's owner may raise the link.
	if err := g.SetLongUp(2, 0, true); err != nil {
		t.Errorf("SetLongUp toward a present node: %v", err)
	}
	// Linking from or to a vacant point is rejected outright.
	if err := g.RemoveNode(9); err != nil {
		t.Fatal(err)
	}
	if g.AddLong(3, 9) == nil || g.AddLong(9, 3) == nil || g.ReplaceLong(2, 0, 9) == nil {
		t.Error("a link with a vacant endpoint was accepted")
	}
}

func TestDynamicAddRemoveValidation(t *testing.T) {
	sp, err := metric.NewRing(8)
	if err != nil {
		t.Fatal(err)
	}
	g := NewEmpty(sp)
	if g.AliveCount() != 0 {
		t.Error("empty graph should have no nodes")
	}
	if err := g.AddNode(3); err != nil {
		t.Fatal(err)
	}
	if err := g.AddNode(3); err == nil {
		t.Error("duplicate AddNode should error")
	}
	if err := g.AddNode(99); err == nil {
		t.Error("out-of-range AddNode should error")
	}
	if err := g.RemoveNode(5); err == nil {
		t.Error("removing a missing node should error")
	}
	if err := g.RemoveNode(3); err != nil {
		t.Fatal(err)
	}
	if g.AliveCount() != 0 || g.Exists(3) {
		t.Error("RemoveNode did not clear the node")
	}
}

func TestRemoveFailedNodeKeepsAliveCount(t *testing.T) {
	sp, err := metric.NewRing(4)
	if err != nil {
		t.Fatal(err)
	}
	g := New(sp)
	g.Fail(1)
	if g.AliveCount() != 3 {
		t.Fatal("setup")
	}
	if err := g.RemoveNode(1); err != nil {
		t.Fatal(err)
	}
	if g.AliveCount() != 3 {
		t.Errorf("removing an already-failed node must not change alive count: %d", g.AliveCount())
	}
}

// Symmetric routing sees an in-link even when the only link between two
// nodes is directed the other way.
func TestAppendNeighborsSeesInLinks(t *testing.T) {
	sp, err := metric.NewRing(32)
	if err != nil {
		t.Fatal(err)
	}
	g := New(sp)
	if err := g.AddLong(5, 20); err != nil {
		t.Fatal(err)
	}
	seen := func(in bool) bool {
		for _, q := range g.AppendNeighbors(nil, 20, in) {
			if q == 5 {
				return true
			}
		}
		return false
	}
	if !seen(true) {
		t.Error("node 20 should see in-neighbour 5")
	}
	// But the directed enumeration must not.
	if seen(false) {
		t.Error("out enumeration must not include in-links")
	}
	// Downing the link hides it from both sides.
	if err := g.SetLongUp(5, 0, false); err != nil {
		t.Fatal(err)
	}
	if seen(true) {
		t.Error("down in-link should be hidden")
	}
}
