package overlay

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/metric"
	"repro/internal/rng"
	"repro/internal/transport"
)

func testConfig(t testing.TB, n, links int) Config {
	t.Helper()
	ring, err := metric.NewRing(n)
	if err != nil {
		t.Fatal(err)
	}
	return Config{Ring: ring, Links: links, Seed: 42}
}

func TestConfigValidate(t *testing.T) {
	if err := (Config{}).Validate(); err == nil {
		t.Error("nil ring should error")
	}
	cfg := testConfig(t, 64, -1)
	if err := cfg.Validate(); err == nil {
		t.Error("negative links should error")
	}
}

func TestNewNodeValidatesID(t *testing.T) {
	tr := transport.NewInMem(1)
	cfg := testConfig(t, 64, 4)
	if _, err := NewNode(metric.Point(99), cfg, tr); err == nil {
		t.Error("out-of-ring id should error")
	}
}

func TestHashKeyStableAndInRange(t *testing.T) {
	ring, err := metric.NewRing(1 << 12)
	if err != nil {
		t.Fatal(err)
	}
	a := HashKey("some-resource", ring)
	b := HashKey("some-resource", ring)
	if a != b {
		t.Error("hash must be deterministic")
	}
	if !ring.Contains(a) {
		t.Error("hash out of range")
	}
	if HashKey("other", ring) == a && HashKey("third", ring) == a {
		t.Error("suspicious collisions")
	}
}

func TestSingleNodePutGet(t *testing.T) {
	tr := transport.NewInMem(2)
	cfg := testConfig(t, 256, 4)
	n, err := NewNode(7, cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	ctx := context.Background()
	owner, err := n.Put(ctx, "k", "v")
	if err != nil {
		t.Fatal(err)
	}
	if owner != 7 {
		t.Errorf("owner = %d, want self", owner)
	}
	v, ok, err := n.Get(ctx, "k")
	if err != nil || !ok || v != "v" {
		t.Errorf("get = %q,%v,%v", v, ok, err)
	}
	_, ok, err = n.Get(ctx, "missing")
	if err != nil || ok {
		t.Errorf("missing key = %v,%v", ok, err)
	}
	if storeSize(n) != 1 {
		t.Errorf("store size = %d", storeSize(n))
	}
}

// storeSize returns the number of keys n stores locally.
func storeSize(n *Node) int {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return len(n.store)
}

func buildCluster(t testing.TB, tr transport.Transport, cfg Config, points []metric.Point) *Cluster {
	t.Helper()
	c, err := NewCluster(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, p := range points {
		if _, err := c.AddNode(ctx, p); err != nil {
			t.Fatalf("add %d: %v", p, err)
		}
	}
	return c
}

func TestJoinWiresShortLinks(t *testing.T) {
	tr := transport.NewInMem(3)
	cfg := testConfig(t, 64, 2)
	c := buildCluster(t, tr, cfg, []metric.Point{10, 30, 50})
	defer c.Close()

	// After the join protocol plus a maintenance round, ring order
	// should be 10 <-> 30 <-> 50 <-> 10.
	c.MaintainAll(context.Background())
	n10, _ := c.Node(10)
	left, right, _ := n10.Neighbors()
	if right != 30 || left != 50 {
		t.Errorf("node 10 neighbors = left %d right %d, want 50/30", left, right)
	}
	n30, _ := c.Node(30)
	left, right, _ = n30.Neighbors()
	if left != 10 || right != 50 {
		t.Errorf("node 30 neighbors = left %d right %d, want 10/50", left, right)
	}
}

func TestClusterLookupFindsOwner(t *testing.T) {
	tr := transport.NewInMem(4)
	cfg := testConfig(t, 256, 4)
	points := []metric.Point{0, 32, 64, 96, 128, 160, 192, 224}
	c := buildCluster(t, tr, cfg, points)
	defer c.Close()
	c.MaintainAll(context.Background())

	ctx := context.Background()
	n0, _ := c.Node(0)
	// Target 100 is closest to node 96.
	owner, hops, err := n0.Lookup(ctx, 100)
	if err != nil {
		t.Fatal(err)
	}
	if owner != 96 {
		t.Errorf("owner of 100 = %d, want 96", owner)
	}
	if hops < 1 {
		t.Error("lookup across the ring should take hops")
	}
	// Target exactly on a node.
	owner, _, err = n0.Lookup(ctx, 128)
	if err != nil || owner != 128 {
		t.Errorf("owner of 128 = %d,%v", owner, err)
	}
}

func TestPutGetAcrossCluster(t *testing.T) {
	tr := transport.NewInMem(5)
	cfg := testConfig(t, 512, 6)
	points := make([]metric.Point, 0, 16)
	for i := 0; i < 16; i++ {
		points = append(points, metric.Point(i*32))
	}
	c := buildCluster(t, tr, cfg, points)
	defer c.Close()
	c.MaintainAll(context.Background())

	ctx := context.Background()
	writer, _ := c.Node(0)
	keys := []string{"alpha", "beta", "gamma", "delta", "epsilon"}
	for _, k := range keys {
		if _, err := writer.Put(ctx, k, "value-"+k); err != nil {
			t.Fatalf("put %q: %v", k, err)
		}
	}
	reader, _ := c.Node(256)
	for _, k := range keys {
		v, ok, err := reader.Get(ctx, k)
		if err != nil {
			t.Fatalf("get %q: %v", k, err)
		}
		if !ok || v != "value-"+k {
			t.Errorf("get %q = %q,%v", k, v, ok)
		}
	}
}

func TestLongLinksDrawnOnJoin(t *testing.T) {
	tr := transport.NewInMem(6)
	cfg := testConfig(t, 1024, 5)
	points := make([]metric.Point, 0, 32)
	for i := 0; i < 32; i++ {
		points = append(points, metric.Point(i*32))
	}
	c := buildCluster(t, tr, cfg, points)
	defer c.Close()
	// Late joiners should have accumulated long links.
	n, _ := c.Node(points[len(points)-1])
	_, _, long := n.Neighbors()
	if len(long) == 0 {
		t.Error("joiner has no long links")
	}
	for _, to := range long {
		if to == n.ID() {
			t.Error("self long link")
		}
	}
}

func TestCrashAndSelfHealing(t *testing.T) {
	tr := transport.NewInMem(7)
	cfg := testConfig(t, 256, 4)
	points := []metric.Point{0, 32, 64, 96, 128, 160, 192, 224}
	c := buildCluster(t, tr, cfg, points)
	defer c.Close()
	ctx := context.Background()
	c.MaintainAll(ctx)

	// Crash two nodes without warning.
	if err := c.CrashNode(64); err != nil {
		t.Fatal(err)
	}
	if err := c.CrashNode(96); err != nil {
		t.Fatal(err)
	}
	// Self-healing rounds.
	c.MaintainAll(ctx)
	c.MaintainAll(ctx)

	// The ring must have healed around the gap: node 32's right link
	// should now be 128.
	n32, _ := c.Node(32)
	_, right, _ := n32.Neighbors()
	if right != 128 {
		t.Errorf("node 32 right = %d, want 128 after healing", right)
	}
	// Lookups across the gap must work again.
	n0, _ := c.Node(0)
	owner, _, err := n0.Lookup(ctx, 100)
	if err != nil {
		t.Fatal(err)
	}
	if owner != 128 {
		t.Errorf("owner of 100 after crashes = %d, want 128", owner)
	}
}

func TestLookupSurvivesDeadHopExclusion(t *testing.T) {
	tr := transport.NewInMem(9)
	cfg := testConfig(t, 256, 4)
	points := []metric.Point{0, 32, 64, 96, 128, 160, 192, 224}
	c := buildCluster(t, tr, cfg, points)
	defer c.Close()
	ctx := context.Background()
	c.MaintainAll(ctx)

	// Crash a node but do NOT run maintenance: peers still hold links
	// to it, so lookups must route around via exclusion.
	if err := c.CrashNode(128); err != nil {
		t.Fatal(err)
	}
	n0, _ := c.Node(0)
	owner, _, err := n0.Lookup(ctx, 130)
	if err != nil {
		t.Fatalf("lookup should survive a dead hop: %v", err)
	}
	if owner == 128 {
		t.Error("dead node returned as owner")
	}
}

func TestNodeOverTCPTransport(t *testing.T) {
	if testing.Short() {
		t.Skip("TCP cluster test")
	}
	tr := transport.NewTCP()
	cfg := testConfig(t, 128, 3)
	c := buildCluster(t, tr, cfg, []metric.Point{5, 37, 70, 101})
	defer c.Close()
	ctx := context.Background()
	c.MaintainAll(ctx)

	n5, _ := c.Node(5)
	if _, err := n5.Put(ctx, "tcp-key", "tcp-value"); err != nil {
		t.Fatal(err)
	}
	n70, _ := c.Node(70)
	v, ok, err := n70.Get(ctx, "tcp-key")
	if err != nil || !ok || v != "tcp-value" {
		t.Errorf("tcp get = %q,%v,%v", v, ok, err)
	}
}

func TestClusterBookkeeping(t *testing.T) {
	tr := transport.NewInMem(10)
	cfg := testConfig(t, 64, 2)
	c := buildCluster(t, tr, cfg, []metric.Point{1, 2})
	defer c.Close()
	if c.Size() != 2 || len(c.Nodes()) != 2 {
		t.Error("size bookkeeping wrong")
	}
	if _, err := c.AddNode(context.Background(), 1); err == nil {
		t.Error("duplicate AddNode should error")
	}
	if err := c.CrashNode(9); err == nil {
		t.Error("crashing unknown node should error")
	}
	if _, err := c.RandomNode(); err != nil {
		t.Error(err)
	}
	empty, err := NewCluster(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := empty.RandomNode(); err == nil {
		t.Error("empty cluster RandomNode should error")
	}
}

func TestMaintenanceLoopRuns(t *testing.T) {
	tr := transport.NewInMem(11)
	ring, err := metric.NewRing(64)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Ring: ring, Links: 2, Seed: 1, MaintenanceInterval: time.Millisecond}
	n, err := NewNode(3, cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)
	n.Close() // must not deadlock with the loop
}

func TestSolicitTopUpAndRedirect(t *testing.T) {
	tr := transport.NewInMem(12)
	cfg := testConfig(t, 256, 2)
	n, err := NewNode(0, cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	// Below budget: always accepted.
	if !n.handleSolicit(10) || !n.handleSolicit(20) {
		t.Error("below-budget solicits should be accepted")
	}
	_, _, long := n.Neighbors()
	if len(long) != 2 {
		t.Fatalf("long links = %v", long)
	}
	// At budget: acceptance is probabilistic; over many very-close
	// solicitors, some must be accepted (p_new near max).
	accepted := 0
	for i := 0; i < 200; i++ {
		if n.handleSolicit(metric.Point(1 + i%3)) {
			accepted++
		}
	}
	if accepted == 0 {
		t.Error("close solicitors should sometimes be accepted")
	}
	_, _, long = n.Neighbors()
	if len(long) != 2 {
		t.Errorf("budget exceeded: %v", long)
	}
	if n.handleSolicit(0) {
		t.Error("self solicit must be rejected")
	}
}

// Concurrent clients, maintenance and membership changes must be
// data-race free (validated under -race) and never corrupt stores.
func TestConcurrentClientOperations(t *testing.T) {
	tr := transport.NewInMem(64)
	cfg := testConfig(t, 512, 4)
	cfg.CallTimeout = 2 * time.Second
	points := []metric.Point{0, 64, 128, 192, 256, 320, 384, 448}
	c := buildCluster(t, tr, cfg, points)
	defer c.Close()
	ctx := context.Background()
	c.MaintainAll(ctx)

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for w := 0; w < 8; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			node, _ := c.Node(points[w])
			for i := 0; i < 25; i++ {
				k := fmt.Sprintf("w%d-k%d", w, i)
				if _, err := node.Put(ctx, k, "v"); err != nil {
					errs <- fmt.Errorf("put %s: %w", k, err)
					return
				}
				if _, _, err := node.Get(ctx, k); err != nil {
					errs <- fmt.Errorf("get %s: %w", k, err)
					return
				}
			}
		}()
	}
	// Maintenance churns concurrently.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			for _, p := range points {
				if n, ok := c.Node(p); ok {
					n.MaintainOnce(ctx)
				}
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// Points in a request are outside input: the server side rejects what
// the client side (Lookup) already refuses to send.
func TestServeRejectsOffRingInput(t *testing.T) {
	tr := transport.NewInMem(13)
	n, err := NewNode(7, testConfig(t, 64, 2), tr)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	for _, req := range []string{
		`{"op":"nearest","target":64}`,
		`{"op":"nearest","target":-1}`,
		`{"op":"ping","from":64}`,
		`{"op":"solicit","from":-3}`,
		`{"op":"forward","target":1}`,
	} {
		if _, err := n.handle([]byte(req)); err == nil {
			t.Errorf("request %s should be an error", req)
		}
	}
	if _, err := n.handle([]byte(`{"op":"nearest","target":63,"from":63}`)); err != nil {
		t.Errorf("in-ring request rejected: %v", err)
	}
}

// damagedCluster builds `nodes` random members of an n-ring, heals it
// once, then crashes a quarter of them and runs no maintenance: every
// survivor's view still names the dead.
func damagedCluster(t *testing.T, n, nodes int, seed uint64) (*Cluster, *rng.Source) {
	t.Helper()
	cfg := testConfig(t, n, 4)
	cfg.Seed = seed
	c, err := NewCluster(cfg, transport.NewInMem(seed))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	ctx := context.Background()
	src := rng.New(seed)
	for c.Size() < nodes {
		if p := metric.Point(src.Intn(n)); !hasNode(c, p) {
			if _, err := c.AddNode(ctx, p); err != nil {
				t.Fatalf("seed %d: add %d: %v", seed, p, err)
			}
		}
	}
	c.MaintainAll(ctx)
	for i := 0; i < nodes/4; i++ {
		pts := c.Nodes()
		if err := c.CrashNode(pts[src.Intn(len(pts))]); err != nil {
			t.Fatal(err)
		}
	}
	return c, src
}

func hasNode(c *Cluster, p metric.Point) bool {
	_, ok := c.Node(p)
	return ok
}

// Join locates its place with the same loop Lookup runs, so a network
// whose crashes nobody has repaired yet admits newcomers wherever it
// answers lookups — and the newcomer settles on live short links
// rather than the dead ones its owner still believes in.
func TestJoinThroughUnrepairedCrashes(t *testing.T) {
	ctx := context.Background()
	for seed := uint64(1); seed <= 20; seed++ {
		c, src := damagedCluster(t, 1024, 64, seed)
		for joined := 0; joined < 5; {
			p := metric.Point(src.Intn(1024))
			if hasNode(c, p) {
				continue
			}
			node, err := c.AddNode(ctx, p)
			if err != nil {
				t.Fatalf("seed %d: join at %d: %v", seed, p, err)
			}
			left, right, _ := node.Neighbors()
			if !hasNode(c, left) || !hasNode(c, right) || left == p || right == p {
				t.Errorf("seed %d: newcomer %d short links %d/%d are not live peers", seed, p, left, right)
			}
			joined++
		}
	}
}

// The bootstrap after a crash is the lowest live point, not whatever a
// map iteration yields first: equal seeds and operation histories join
// through equal nodes.
func TestBootstrapElectionIsReproducible(t *testing.T) {
	var want string
	for run := 0; run < 20; run++ {
		c := buildCluster(t, transport.NewInMem(14), testConfig(t, 256, 2),
			[]metric.Point{200, 40, 120, 8, 160, 80, 240})
		if err := c.CrashNode(200); err != nil { // the first node: the bootstrap
			t.Fatal(err)
		}
		if c.boot != 8 {
			t.Errorf("run %d: bootstrap %d, want the lowest live point 8", run, c.boot)
		}
		// The next join goes through it, so its links repeat too.
		n, err := c.AddNode(context.Background(), 100)
		if err != nil {
			t.Fatal(err)
		}
		_, _, long := n.Neighbors()
		if got := fmt.Sprint(long); run == 0 {
			want = got
		} else if got != want {
			t.Errorf("run %d: newcomer's long links %s, run 0 drew %s", run, got, want)
		}
		c.Close()
	}
}
