package overlay

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/metric"
	"repro/internal/replica"
	"repro/internal/transport"
)

func TestPutReplicatedValidation(t *testing.T) {
	tr := transport.NewInMem(20)
	cfg := testConfig(t, 64, 2)
	n, err := NewNode(0, cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	ctx := context.Background()
	if _, err := n.PutReplicated(ctx, "k", "v", 0); err == nil {
		t.Error("replicas=0 should error")
	}
	if _, _, err := n.GetReplicated(ctx, "k", 0); err == nil {
		t.Error("replicas=0 should error")
	}
}

// spreadKey returns a key whose k replica points are owned by k
// distinct members of points (each the unique nearest member, so every
// querier resolves the same owner), none of them `avoid`, together with
// those owners in replica order.
func spreadKey(t *testing.T, cfg Config, points []metric.Point, k int, avoid metric.Point) (string, []metric.Point) {
	t.Helper()
	place, err := replica.NewPlacement(cfg.Ring, replica.Options{K: k}, placementSeed)
	if err != nil {
		t.Fatal(err)
	}
candidates:
	for i := 0; i < 4096; i++ {
		key := fmt.Sprintf("replicated-key-%d", i)
		var owners []metric.Point
		for _, target := range place.Targets(HashKey(key, cfg.Ring)) {
			best, bestD, tie := metric.Point(0), cfg.Ring.Size(), false
			for _, p := range points {
				switch d := cfg.Ring.Distance(p, target); {
				case d < bestD:
					best, bestD, tie = p, d, false
				case d == bestD:
					tie = true
				}
			}
			if tie || best == avoid || slices.Contains(owners, best) {
				continue candidates
			}
			owners = append(owners, best)
		}
		return key, owners
	}
	t.Fatal("no key with distinct replica owners")
	return "", nil
}

// A replicated write lands on the live owners of the key's placement
// points — the nodes replica.Placement's hash-spread names, not a run
// of ring successors.
func TestReplicationStoresOnChain(t *testing.T) {
	tr := transport.NewInMem(21)
	cfg := testConfig(t, 256, 4)
	points := []metric.Point{0, 32, 64, 96, 128, 160, 192, 224}
	c := buildCluster(t, tr, cfg, points)
	defer c.Close()
	ctx := context.Background()
	c.MaintainAll(ctx)

	key, want := spreadKey(t, cfg, points, 3, -1)
	writer, _ := c.Node(0)
	stored, err := writer.PutReplicated(ctx, key, "value", 3)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(stored, want) {
		t.Fatalf("stored on %v, want the placement owners %v", stored, want)
	}
	for _, p := range stored {
		node, ok := c.Node(p)
		if !ok {
			t.Fatalf("replica %d is not a cluster member", p)
		}
		if storeSize(node) == 0 {
			t.Errorf("replica %d holds no data", p)
		}
	}
	// The unreplicated write is the k = 1 case: the primary alone.
	owner, err := writer.Put(ctx, key, "value")
	if err != nil || owner != want[0] {
		t.Errorf("Put owner = %d, %v; want the primary %d", owner, err, want[0])
	}
}

func TestReplicationSurvivesOwnerCrash(t *testing.T) {
	tr := transport.NewInMem(22)
	cfg := testConfig(t, 256, 4)
	points := []metric.Point{0, 32, 64, 96, 128, 160, 192, 224}
	c := buildCluster(t, tr, cfg, points)
	defer c.Close()
	ctx := context.Background()
	c.MaintainAll(ctx)

	key, _ := spreadKey(t, cfg, points, 3, 0) // never owned by the writer
	writer, _ := c.Node(0)
	stored, err := writer.PutReplicated(ctx, key, "data", 3)
	if err != nil {
		t.Fatal(err)
	}
	// Crash the primary owner; replicas keep the data alive.
	if err := c.CrashNode(stored[0]); err != nil {
		t.Fatal(err)
	}
	c.MaintainAll(ctx)
	c.MaintainAll(ctx)

	v, ok, err := writer.GetReplicated(ctx, key, 3)
	if err != nil {
		t.Fatalf("replicated get: %v", err)
	}
	if !ok || v != "data" {
		t.Errorf("get = %q,%v — replication should survive the owner crash", v, ok)
	}
}

// More replicas than members: the holders are the distinct members, no
// node is written twice.
func TestHoldersDistinctOnSmallRing(t *testing.T) {
	tr := transport.NewInMem(23)
	cfg := testConfig(t, 64, 2)
	c := buildCluster(t, tr, cfg, []metric.Point{10, 40})
	defer c.Close()
	ctx := context.Background()
	c.MaintainAll(ctx)
	n10, _ := c.Node(10)
	held, err := n10.holders(ctx, "k", 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(held) > 2 || (len(held) == 2 && held[0] == held[1]) {
		t.Errorf("holders = %v, ring only has 2 members", held)
	}
}
