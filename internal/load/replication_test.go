package load

import (
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/metric"
	"repro/internal/replica"
	"repro/internal/rng"
	"repro/internal/route"
)

// replicatedConfig is the shared flood-replication configuration of
// these tests.
func replicatedConfig(k int, cache int) Config {
	return Config{
		Messages:    600,
		Route:       route.Options{DeadEnd: route.Backtrack},
		Replication: &replica.Options{K: k, CacheThreshold: cache},
	}
}

// TestReplicationFansOutFlood: under a single-target flood, k = 4
// replicas must spread deliveries across several replica points and cut
// the hottest node's load versus k = 1.
func TestReplicationFansOutFlood(t *testing.T) {
	g := buildRing(t, 1024, 10, 21)
	plain, err := Run(g, Flood(), Config{
		Messages: 600,
		Route:    route.Options{DeadEnd: route.Backtrack},
	}, 22)
	if err != nil {
		t.Fatal(err)
	}
	repl, err := Run(g, Flood(), replicatedConfig(4, 0), 22)
	if err != nil {
		t.Fatal(err)
	}
	if repl.Replication == "" || plain.Replication != "" {
		t.Errorf("replication labels: plain=%q replicated=%q", plain.Replication, repl.Replication)
	}
	servers := 0
	for _, c := range repl.ServedBy {
		if c > 0 {
			servers++
		}
	}
	if servers < 2 {
		t.Errorf("flood with k=4 served by %d points, want >= 2", servers)
	}
	plainServers := 0
	for _, c := range plain.ServedBy {
		if c > 0 {
			plainServers++
		}
	}
	if plainServers != 1 {
		t.Errorf("plain flood served by %d points, want exactly the victim", plainServers)
	}
	if repl.MaxLoad >= plain.MaxLoad {
		t.Errorf("replication did not cut the hottest node: k=4 max %d vs k=1 max %d",
			repl.MaxLoad, plain.MaxLoad)
	}
	if repl.Delivered+repl.Failed != repl.Injected {
		t.Errorf("conservation broke: %d + %d != %d", repl.Delivered, repl.Failed, repl.Injected)
	}
}

// TestReplicationWorkerInvariance: the replica pipeline (static spread
// plus cache-on-path promotion at batch boundaries) must stay
// byte-identical across worker counts.
func TestReplicationWorkerInvariance(t *testing.T) {
	g := buildTorus(t, 24, 9, 23)
	run := func(workers int) *Result {
		cfg := replicatedConfig(4, 32)
		cfg.Workers = workers
		cfg.Penalty = 1 // congestion-aware batching on top of replication
		r, err := Run(g, Zipf(1.0), cfg, 24)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	one := run(1)
	for _, w := range []int{2, 8} {
		if got := run(w); !reflect.DeepEqual(one, got) {
			t.Errorf("workers=%d diverged from workers=1", w)
		}
	}
}

// TestCacheOnPathPlacesCopies: a flooded key must cross the popularity
// threshold and earn cached copies, which then absorb deliveries.
func TestCacheOnPathPlacesCopies(t *testing.T) {
	g := buildRing(t, 1024, 10, 25)
	r, err := Run(g, Flood(), replicatedConfig(0, 50), 26)
	if err != nil {
		t.Fatal(err)
	}
	if r.CachedKeys != 1 {
		t.Errorf("cached keys = %d, want 1 (the flood victim)", r.CachedKeys)
	}
	if r.CacheCopies == 0 {
		t.Error("no cache copies placed despite the threshold being crossed")
	}
	servers := 0
	for _, c := range r.ServedBy {
		if c > 0 {
			servers++
		}
	}
	if servers < 2 {
		t.Errorf("cache-on-path flood served by %d points, want >= 2", servers)
	}
}

// TestReplicationValidate: bad replica options must be rejected by
// Config.Validate via Run.
func TestReplicationValidate(t *testing.T) {
	g := buildRing(t, 64, 3, 27)
	cfg := Config{Replication: &replica.Options{K: -2}}
	if _, err := Run(g, Uniform(), cfg, 1); err == nil {
		t.Error("negative replica count accepted")
	}
	cfg = Config{Replication: &replica.Options{K: 2, Strategy: "bogus"}}
	if _, err := Run(g, Uniform(), cfg, 1); err == nil {
		t.Error("unknown strategy accepted")
	}
}

// TestReplicationDisabledMatchesPlain: a nil-equivalent (disabled)
// replication config must leave results bit-identical to no config at
// all — the fallback the regress goldens rely on.
func TestReplicationDisabledMatchesPlain(t *testing.T) {
	g := buildRing(t, 512, 9, 28)
	base, err := Run(g, Zipf(1.0), Config{Messages: 300}, 29)
	if err != nil {
		t.Fatal(err)
	}
	disabled, err := Run(g, Zipf(1.0), Config{
		Messages:    300,
		Replication: &replica.Options{K: 1},
	}, 29)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(base, disabled) {
		t.Error("disabled replication changed the run")
	}
}

// TestReplicationServedByMatchesTargets: every delivery lands on a
// point the placement offered for that key.
func TestReplicationServedByMatchesTargets(t *testing.T) {
	g := buildRing(t, 512, 9, 30)
	cfg := replicatedConfig(3, 0)
	cfg.ReplicaSeed = 77
	r, err := Run(g, Flood(), cfg, 31)
	if err != nil {
		t.Fatal(err)
	}
	placement, err := replica.NewPlacement(g.Space(), *cfg.Replication, 77)
	if err != nil {
		t.Fatal(err)
	}
	// The flood victim is the only key; find it as the served point
	// that is a primary of some target set containing all other served
	// points.
	var victim metric.Point = -1
	for p, c := range r.ServedBy {
		if c == 0 {
			continue
		}
		for q, cq := range r.ServedBy {
			if cq == 0 {
				continue
			}
			found := false
			for _, tg := range placement.Targets(metric.Point(p)) {
				if tg == metric.Point(q) {
					found = true
					break
				}
			}
			if !found {
				goto next
			}
		}
		victim = metric.Point(p)
		break
	next:
	}
	if victim < 0 {
		t.Errorf("no served point explains all deliveries; ServedBy nonzeros: %v", nonzero(r.ServedBy))
	}
}

func nonzero(counts []int) map[int]int {
	out := map[int]int{}
	for i, c := range counts {
		if c > 0 {
			out[i] = c
		}
	}
	return out
}

// phaseFlood floods victim A for the first half of the run and victim
// B for the second — the moving-hotspot workload
// TestCacheKeepsEveryVictimOfAMovingHotspot pins. Victims are drawn at
// Bind, so the workload is seeded like every other generator.
type phaseFlood struct {
	pop    population
	a, b   metric.Point
	drawn  int
	halfAt int
}

func (f *phaseFlood) Name() string { return "phase-flood" }

func (f *phaseFlood) Bind(g *graph.Graph, src *rng.Source) error {
	if err := f.pop.bind(g, src, false); err != nil {
		return err
	}
	f.a = f.pop.uniform(src)
	f.b, _ = distinct(src, f.a, f.pop.uniform)
	f.drawn = 0
	return nil
}

func (f *phaseFlood) Pair(src *rng.Source) (metric.Point, metric.Point, error) {
	target := f.a
	if f.drawn >= f.halfAt {
		target = f.b
	}
	f.drawn++
	from, err := distinct(src, target, f.pop.uniform)
	return from, target, err
}

// TestCacheKeepsEveryVictimOfAMovingHotspot: the flood victim moves
// mid-run, and a promoted copy is never evicted, so both victims stay
// cached to the end — in snapshot and live mode alike.
func TestCacheKeepsEveryVictimOfAMovingHotspot(t *testing.T) {
	const msgs = 600
	for _, live := range []bool{false, true} {
		g := buildRing(t, 1024, 10, 33)
		cfg := Config{
			Messages:    msgs,
			Live:        live,
			Route:       route.Options{DeadEnd: route.Backtrack},
			Replication: &replica.Options{CacheThreshold: 16, CacheCopies: 4},
		}
		r, err := Run(g, &phaseFlood{halfAt: msgs / 2}, cfg, 34)
		if err != nil {
			t.Fatal(err)
		}
		if r.CachedKeys != 2 {
			t.Fatalf("live=%v: both victims should stay cached, got %d keys", live, r.CachedKeys)
		}
		if r.Delivered+r.Failed != r.Injected {
			t.Errorf("live=%v: conservation broke", live)
		}
	}
}
