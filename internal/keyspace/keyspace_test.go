package keyspace

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

func TestHashValidation(t *testing.T) {
	if _, err := Hash("x", 0); err == nil {
		t.Error("n=0 should error")
	}
}

func TestHashDeterministicAndInRange(t *testing.T) {
	f := func(s string) bool {
		const n = 4096
		a, err := Hash(Key(s), n)
		if err != nil {
			return false
		}
		b, err := Hash(Key(s), n)
		if err != nil {
			return false
		}
		return a == b && a >= 0 && int(a) < n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHashSpreadsEvenly(t *testing.T) {
	// §2 assumes the hash populates the space evenly: bucket 10k keys
	// into 16 regions and check against the uniform expectation.
	const n, keys, regions = 1 << 12, 10000, 16
	counts := make([]int, regions)
	for i := 0; i < keys; i++ {
		p, err := Hash(Key(fmt.Sprintf("resource-%d", i)), n)
		if err != nil {
			t.Fatal(err)
		}
		counts[int(p)*regions/n]++
	}
	want := float64(keys) / regions
	for r, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("region %d has %d keys, want ≈ %v", r, c, want)
		}
	}
}

func TestMappingAddAndLookup(t *testing.T) {
	if _, err := NewMapping(0); err == nil {
		t.Error("n=0 should error")
	}
	m, err := NewMapping(1 << 16)
	if err != nil {
		t.Fatal(err)
	}
	p, err := m.Add(7, "song.ogg")
	if err != nil {
		t.Fatal(err)
	}
	owner, ok := m.OwnerOf(p)
	if !ok || owner != 7 {
		t.Errorf("owner = %v,%v", owner, ok)
	}
	if k, ok := m.keys[p]; !ok || k != "song.ogg" {
		t.Errorf("key = %v,%v", k, ok)
	}
	if len(m.owner) != 1 {
		t.Error("bookkeeping wrong")
	}
	if _, ok := m.OwnerOf(p + 1); ok {
		t.Error("empty point should have no owner")
	}
}

func TestMappingCollision(t *testing.T) {
	m, err := NewMapping(1) // every key collides
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Add(1, "a"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Add(2, "b"); err == nil {
		t.Error("collision should error")
	}
}

func TestPointsOfSortedAndComplete(t *testing.T) {
	m, err := NewMapping(1 << 16)
	if err != nil {
		t.Fatal(err)
	}
	var added []Key
	for i := 0; i < 20; i++ {
		k := Key(fmt.Sprintf("file-%d", i))
		if _, err := m.Add(3, k); err != nil {
			t.Fatal(err)
		}
		added = append(added, k)
	}
	pts := m.PointsOf(3)
	if len(pts) != len(added) {
		t.Fatalf("points = %d, want %d", len(pts), len(added))
	}
	for i := 1; i < len(pts); i++ {
		if pts[i-1] >= pts[i] {
			t.Fatal("points not sorted")
		}
	}
	if _, ok := m.points[3]; !ok || len(m.points) != 1 {
		t.Errorf("owners = %v", m.points)
	}
}

func TestPresenceMask(t *testing.T) {
	m, err := NewMapping(64)
	if err != nil {
		t.Fatal(err)
	}
	p, err := m.Add(1, "only")
	if err != nil {
		t.Fatal(err)
	}
	mask := m.PresenceMask()
	if len(mask) != 64 {
		t.Fatalf("mask length = %d", len(mask))
	}
	for i, present := range mask {
		if present != (i == int(p)) {
			t.Errorf("mask[%d] = %v", i, present)
		}
	}
}

func TestRemove(t *testing.T) {
	m, err := NewMapping(1 << 16)
	if err != nil {
		t.Fatal(err)
	}
	p, err := m.Add(5, "x")
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Remove(p); err != nil {
		t.Fatal(err)
	}
	if _, ok := m.OwnerOf(p); ok {
		t.Error("removed point still owned")
	}
	if len(m.points) != 0 {
		t.Error("empty owner should be dropped")
	}
	if err := m.Remove(p); err == nil {
		t.Error("double remove should error")
	}
}

func TestFailPhysicalKillsAllPoints(t *testing.T) {
	m, err := NewMapping(1 << 16)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := m.Add(9, Key(fmt.Sprintf("r-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.Add(2, "other"); err != nil {
		t.Fatal(err)
	}
	dead := m.FailPhysical(9)
	if len(dead) != 10 {
		t.Fatalf("failed points = %d, want 10", len(dead))
	}
	for _, p := range dead {
		if _, ok := m.OwnerOf(p); ok {
			t.Errorf("point %d survived its machine", p)
		}
	}
	if len(m.owner) != 1 {
		t.Errorf("occupied = %d, want 1 (the other machine)", len(m.owner))
	}
	if got := m.FailPhysical(9); len(got) != 0 {
		t.Error("double crash should kill nothing")
	}
}
