package graph

import (
	"testing"
	"testing/quick"

	"repro/internal/metric"
	"repro/internal/rng"
)

func mustRing(t testing.TB, n int) *metric.Ring {
	t.Helper()
	r, err := metric.NewRing(n)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func mustLine(t testing.TB, n int) *metric.Line {
	t.Helper()
	l, err := metric.NewLine(n)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestNewAllPresent(t *testing.T) {
	g := New(mustRing(t, 16))
	if g.Size() != 16 || g.AliveCount() != 16 {
		t.Fatalf("size/alive = %d/%d", g.Size(), g.AliveCount())
	}
	for p := 0; p < 16; p++ {
		if !g.Exists(metric.Point(p)) || !g.Alive(metric.Point(p)) {
			t.Errorf("point %d should exist and be alive", p)
		}
	}
	if g.Exists(-1) || g.Exists(16) || g.Alive(99) {
		t.Error("out-of-range points must not exist")
	}
}

func TestNewWithPresence(t *testing.T) {
	sp := mustRing(t, 8)
	if _, err := NewWithPresence(sp, make([]bool, 3)); err == nil {
		t.Error("length mismatch should error")
	}
	if _, err := NewWithPresence(sp, make([]bool, 8)); err == nil {
		t.Error("empty presence should error")
	}
	present := []bool{true, false, true, false, false, true, false, false}
	g, err := NewWithPresence(sp, present)
	if err != nil {
		t.Fatal(err)
	}
	if g.AliveCount() != 3 {
		t.Errorf("alive = %d, want 3", g.AliveCount())
	}
	if g.Exists(1) || !g.Exists(2) {
		t.Error("presence mask not honored")
	}
}

func TestFailRevive(t *testing.T) {
	g := New(mustRing(t, 4))
	if !g.Fail(2) {
		t.Error("first Fail should report transition")
	}
	if g.Fail(2) {
		t.Error("second Fail should be a no-op")
	}
	if g.Alive(2) || !g.Exists(2) {
		t.Error("failed node should exist but not be alive")
	}
	if g.AliveCount() != 3 {
		t.Errorf("alive = %d", g.AliveCount())
	}
	if !g.Revive(2) {
		t.Error("Revive should report transition")
	}
	if g.Revive(2) {
		t.Error("double Revive should be a no-op")
	}
	if g.AliveCount() != 4 {
		t.Errorf("alive after revive = %d", g.AliveCount())
	}
	if g.Fail(99) || g.Revive(99) {
		t.Error("out-of-range Fail/Revive must be no-ops")
	}
}

func TestAddLongValidation(t *testing.T) {
	g := New(mustRing(t, 4))
	if err := g.AddLong(0, 0); err == nil {
		t.Error("self-link should error")
	}
	if err := g.AddLong(0, 99); err == nil {
		t.Error("out-of-range link should error")
	}
	if err := g.AddLong(0, 2); err != nil {
		t.Fatal(err)
	}
	if err := g.AddLong(0, 2); err != nil {
		t.Fatal("duplicate links must be permitted:", err)
	}
	links := g.Long(0)
	if len(links) != 2 || links[0].To != 2 || !links[0].Up {
		t.Errorf("links = %+v", links)
	}
	if links[0].Seq >= links[1].Seq {
		t.Error("sequence numbers must increase")
	}
	if g.Long(-1) != nil {
		t.Error("Long out of range should be nil")
	}
	if g.LongLinkCount() != 2 {
		t.Errorf("LongLinkCount = %d", g.LongLinkCount())
	}
}

func TestReplaceLong(t *testing.T) {
	g := New(mustRing(t, 8))
	if err := g.AddLong(0, 3); err != nil {
		t.Fatal(err)
	}
	oldSeq := g.Long(0)[0].Seq
	if err := g.ReplaceLong(0, 0, 5); err != nil {
		t.Fatal(err)
	}
	lk := g.Long(0)[0]
	if lk.To != 5 || !lk.Up || lk.Seq <= oldSeq {
		t.Errorf("after replace: %+v", lk)
	}
	if err := g.ReplaceLong(0, 1, 5); err == nil {
		t.Error("bad index should error")
	}
	if err := g.ReplaceLong(0, 0, 0); err == nil {
		t.Error("redirect to self should error")
	}
}

func TestSetLongUp(t *testing.T) {
	g := New(mustRing(t, 8))
	if err := g.AddLong(0, 3); err != nil {
		t.Fatal(err)
	}
	if err := g.SetLongUp(0, 0, false); err != nil {
		t.Fatal(err)
	}
	if g.Long(0)[0].Up {
		t.Error("link should be down")
	}
	if err := g.SetLongUp(0, 5, false); err == nil {
		t.Error("bad index should error")
	}
}

func TestShortNeighborSkipsHoles(t *testing.T) {
	sp := mustRing(t, 8)
	present := []bool{true, false, false, true, true, false, false, false}
	g, err := NewWithPresence(sp, present)
	if err != nil {
		t.Fatal(err)
	}
	if q, ok := g.ShortNeighbor(0, +1); !ok || q != 3 {
		t.Errorf("right neighbor of 0 = %v,%v, want 3", q, ok)
	}
	if q, ok := g.ShortNeighbor(0, -1); !ok || q != 4 {
		t.Errorf("left neighbor of 0 = %v,%v, want 4 (wrap)", q, ok)
	}
}

func TestShortNeighborLineBoundary(t *testing.T) {
	g := New(mustLine(t, 4))
	if _, ok := g.ShortNeighbor(0, -1); ok {
		t.Error("no left neighbor at line start")
	}
	if q, ok := g.ShortNeighbor(0, +1); !ok || q != 1 {
		t.Errorf("right neighbor of 0 = %v,%v", q, ok)
	}
	if _, ok := g.ShortNeighbor(3, +1); ok {
		t.Error("no right neighbor at line end")
	}
}

func TestShortNeighborSingleNode(t *testing.T) {
	sp := mustRing(t, 4)
	present := []bool{true, false, false, false}
	g, err := NewWithPresence(sp, present)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := g.ShortNeighbor(0, +1); ok {
		t.Error("single node must have no neighbor")
	}
}

func TestAppendNeighborsDedupes(t *testing.T) {
	sp := mustRing(t, 8)
	present := []bool{true, false, false, false, true, false, false, false}
	g, err := NewWithPresence(sp, present)
	if err != nil {
		t.Fatal(err)
	}
	got := g.AppendNeighbors(nil, 0, true)
	if len(got) != 1 || got[0] != 4 {
		t.Errorf("neighbors of 0 = %v, want [4] exactly once", got)
	}
}

func TestAppendNeighborsIncludesUpLongLinks(t *testing.T) {
	g := New(mustRing(t, 16))
	if err := g.AddLong(0, 5); err != nil {
		t.Fatal(err)
	}
	if err := g.AddLong(0, 9); err != nil {
		t.Fatal(err)
	}
	if err := g.SetLongUp(0, 1, false); err != nil {
		t.Fatal(err)
	}
	count := map[metric.Point]int{}
	for _, q := range g.AppendNeighbors(nil, 0, true) {
		count[q]++
	}
	if count[5] != 1 {
		t.Error("up long link missing")
	}
	if count[9] != 0 {
		t.Error("down long link must be hidden")
	}
	if count[1] != 1 || count[15] != 1 {
		t.Errorf("short neighbors wrong: %v", count)
	}
	// Dead neighbours are still enumerated; routing filters them.
	g.Fail(5)
	count = map[metric.Point]int{}
	for _, q := range g.AppendNeighbors(nil, 0, true) {
		count[q]++
	}
	if count[5] != 1 {
		t.Error("dead neighbour should still be enumerated")
	}
}

func TestNearestExisting(t *testing.T) {
	sp := mustRing(t, 8)
	present := []bool{true, false, false, true, false, false, false, false}
	g, err := NewWithPresence(sp, present)
	if err != nil {
		t.Fatal(err)
	}
	if q, ok := g.NearestExisting(3); !ok || q != 3 {
		t.Error("existing target should map to itself")
	}
	if q, ok := g.NearestExisting(2); !ok || q != 3 {
		t.Errorf("nearest to 2 = %v, want 3", q)
	}
	if q, ok := g.NearestExisting(1); !ok || q != 0 {
		t.Errorf("nearest to 1 = %v, want 0 (tie breaks low side)", q)
	}
	if _, ok := g.NearestExisting(-1); ok {
		t.Error("out of range should fail")
	}
}

func TestRandomAliveUniform(t *testing.T) {
	g := New(mustRing(t, 8))
	g.Fail(0)
	g.Fail(1)
	src := rng.New(5)
	counts := map[metric.Point]int{}
	const draws = 12000
	for i := 0; i < draws; i++ {
		p, ok := g.RandomAlive(src)
		if !ok {
			t.Fatal("RandomAlive failed with live nodes present")
		}
		if !g.Alive(p) {
			t.Fatalf("RandomAlive returned dead node %d", p)
		}
		counts[p]++
	}
	want := draws / 6
	for p, c := range counts {
		if c < want/2 || c > want*2 {
			t.Errorf("node %d drawn %d times, want ~%d", p, c, want)
		}
	}
}

func TestRandomAliveSparse(t *testing.T) {
	g := New(mustRing(t, 64))
	for p := 0; p < 63; p++ {
		g.Fail(metric.Point(p))
	}
	src := rng.New(6)
	for i := 0; i < 10; i++ {
		p, ok := g.RandomAlive(src)
		if !ok || p != 63 {
			t.Fatalf("RandomAlive = %v,%v, want 63", p, ok)
		}
	}
	g.Fail(63)
	if _, ok := g.RandomAlive(src); ok {
		t.Error("RandomAlive must fail with no live nodes")
	}
}

func TestAvgOutDegree(t *testing.T) {
	g := New(mustRing(t, 4))
	if g.AvgOutDegree() != 0 {
		t.Error("fresh graph degree should be 0")
	}
	if err := g.AddLong(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := g.AddLong(0, 2); err != nil {
		t.Fatal(err)
	}
	if got := g.AvgOutDegree(); got != 0.5 {
		t.Errorf("AvgOutDegree = %v, want 0.5", got)
	}
}

func TestLinkLengthHistogram(t *testing.T) {
	g := New(mustRing(t, 10))
	if err := g.AddLong(0, 1); err != nil { // distance 1
		t.Fatal(err)
	}
	if err := g.AddLong(0, 5); err != nil { // distance 5
		t.Fatal(err)
	}
	if err := g.AddLong(3, 9); err != nil { // distance 4
		t.Fatal(err)
	}
	h := g.LinkLengthHistogram()
	if h.Total() != 3 {
		t.Fatalf("total = %d", h.Total())
	}
	if h.Count(0) != 1 || h.Count(4) != 1 || h.Count(3) != 1 {
		t.Errorf("histogram counts wrong: d1=%d d5=%d d4=%d", h.Count(0), h.Count(4), h.Count(3))
	}
}

// Property: NearestExisting always returns an existing point whose
// distance to the target is minimal among existing points.
func TestNearestExistingIsNearest(t *testing.T) {
	sp := mustRing(t, 32)
	f := func(mask uint32, tt uint8) bool {
		present := make([]bool, 32)
		any := false
		for i := 0; i < 32; i++ {
			present[i] = mask&(1<<uint(i)) != 0
			any = any || present[i]
		}
		if !any {
			return true
		}
		g, err := NewWithPresence(sp, present)
		if err != nil {
			return false
		}
		target := metric.Point(tt % 32)
		got, ok := g.NearestExisting(target)
		if !ok {
			return false
		}
		best := 1 << 30
		for i := 0; i < 32; i++ {
			if present[i] {
				if d := sp.Distance(metric.Point(i), target); d < best {
					best = d
				}
			}
		}
		return g.Exists(got) && sp.Distance(got, target) == best
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
