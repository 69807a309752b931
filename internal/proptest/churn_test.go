package proptest

import (
	"testing"

	"repro/internal/failure"
	"repro/internal/graph"
	"repro/internal/load"
	"repro/internal/metric"
	"repro/internal/replica"
	"repro/internal/rng"
	"repro/internal/route"
)

// TestPropShardInvarianceChurn fuzzes the churn layer across shard
// counts: random universes under random churn schedules — background
// Poisson churn, regional kills, flash crowds, gossip repair — must
// produce deeply-equal results at 1/2/4/7 shards (every generated
// probe timeout covers the service time, so multi-shard draws run the
// sharded churn loop against the sequential reference), with every
// conservation ledger balancing exactly. Each shard count rebuilds its
// own graph:
// churn mutates the graph in place, which is exactly why the shared-
// graph CheckShardInvariance cannot be used here.
func TestPropShardInvarianceChurn(t *testing.T) {
	churned, stranded := 0, 0
	for iter := 0; iter < 8; iter++ {
		seed := uint64(8000 + iter)
		build := func(tb testing.TB) *graph.Graph { return New(seed).Graph(tb) }
		gen := New(seed)
		gen.Graph(t) // advance the stream past the graph draw, mirroring build
		wl := gen.Workload()
		spec := gen.ChurnSpec(t)
		cfg := load.Config{
			Messages: 100 + gen.src.Intn(150),
			Live:     true,
			Route:    route.Options{DeadEnd: route.Backtrack},
			Churn:    spec,
		}
		switch gen.src.Intn(3) {
		case 1:
			cfg.Aggregate = true
		case 2:
			cfg.PIT = true
			cfg.PITTimeout = 2 + 6*gen.src.Float64()
			cfg.PITWaiters = 1 + gen.src.Intn(4)
		}
		switch gen.src.Intn(3) {
		case 1:
			cfg.Arrival = load.Periodic(1 + 4*gen.src.Float64())
		case 2:
			cfg.Arrival = load.Poisson(1 + 4*gen.src.Float64())
		}
		if gen.src.Bool(0.3) {
			cfg.Replication = &replica.Options{K: 2 + gen.src.Intn(3)}
		}
		res := CheckShardInvarianceChurn(t, build, wl, cfg, uint64(9000+iter))
		if t.Failed() {
			t.Fatalf("iter %d failed (seed %d, workload %s)", iter, seed, wl.Name())
		}
		CheckChurnLedger(t, res)
		if t.Failed() {
			t.Fatalf("iter %d ledger failed (seed %d)", iter, seed)
		}
		churned += res.Crashes + res.Joins
		stranded += res.Stranded
	}
	if churned == 0 {
		t.Error("no iteration applied any churn event; the fuzz is vacuous")
	}
	if stranded == 0 {
		t.Error("no iteration stranded a message; the strand path went unexercised")
	}
}

// TestPropChurnMembershipConverges pins the membership layer's truth:
// once churn stops (and the run drains to quiescence), the graph's
// final alive set must equal the churn schedule replayed over the
// initial alive set — the engine applied exactly the generated events,
// and gossip resolved every rumor.
func TestPropChurnMembershipConverges(t *testing.T) {
	churned := 0
	for iter := 0; iter < 6; iter++ {
		seed := uint64(8300 + iter)
		build := func(tb testing.TB) *graph.Graph { return New(seed).Graph(tb) }
		gen := New(seed)
		g := gen.Graph(t)
		wl := gen.Workload()
		spec := gen.ChurnSpec(t)
		cfg := load.Config{
			Messages: 120,
			Live:     true,
			Route:    route.Options{DeadEnd: route.Backtrack},
			Churn:    spec,
		}
		runSeed := uint64(9300 + iter)
		res, err := load.Run(g, wl, cfg, runSeed)
		if err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		CheckChurnLedger(t, res)
		// Re-expand the schedule exactly as load.Run did (root stream 4,
		// fresh graph — the spec's horizon is explicit, so defaulting
		// changes nothing) and replay it over the initial alive set.
		fresh := build(t)
		events, err := spec.Generate(fresh, rng.New(runSeed).Derive(4))
		if err != nil {
			t.Fatalf("iter %d: re-expansion: %v", iter, err)
		}
		if res.Crashes+res.Joins != len(events) {
			t.Errorf("iter %d: engine applied %d+%d events, schedule has %d",
				iter, res.Crashes, res.Joins, len(events))
		}
		view := failure.NewAliveView(fresh)
		for i, ev := range events {
			if !view.Apply(ev) {
				t.Fatalf("iter %d: generated event %d is not a valid transition", iter, i)
			}
		}
		for p := 0; p < g.Size(); p++ {
			pt := metric.Point(p)
			if g.Alive(pt) != view.Alive(pt) {
				t.Fatalf("iter %d: node %d alive=%v in the run's graph, %v in the replay",
					iter, p, g.Alive(pt), view.Alive(pt))
			}
		}
		churned += len(events)
	}
	if churned == 0 {
		t.Error("no iteration generated any churn event; the convergence check is vacuous")
	}
}

// TestPropChurnJoinDuringMovingHotspot extends the moving-hotspot
// cache scenario with node dynamics: a regional kill while the
// first victim is hot, then a flash-crowd join while the hotspot is
// moving to the second victim, with gossip repair on. Caching forces
// the sequential fallback (churn alone no longer does); the invariance
// run pins that cache promotions and membership repair stay
// deterministic at every requested shard count — and that the
// scenario actually exercises caching, crashes, and joins at once.
func TestPropChurnJoinDuringMovingHotspot(t *testing.T) {
	const msgs = 400
	build := func(tb testing.TB) *graph.Graph {
		ring, err := metric.NewRing(512)
		if err != nil {
			tb.Fatal(err)
		}
		g, err := graph.BuildIdeal(ring, graph.PaperConfig(9), rng.New(33))
		if err != nil {
			tb.Fatal(err)
		}
		// A pre-existing dead pool, so the flash crowd has nodes to revive
		// beyond the kill's victims.
		if _, err := failure.FailNodesFraction(g, 0.2, rng.New(35)); err != nil {
			tb.Fatal(err)
		}
		return g
	}
	spec := failure.ChurnSpec{
		KillFrac: 0.1, KillAt: 30,
		FlashJoin: 40, FlashAt: 60,
		ProbeTimeout: 2, GossipInterval: 1, GossipFanout: 2,
		Repair: true,
	}
	cfg := load.Config{
		Messages:    msgs,
		Live:        true,
		Arrival:     load.Poisson(4),
		Route:       route.Options{DeadEnd: route.Backtrack},
		Replication: &replica.Options{CacheThreshold: 16, CacheCopies: 4},
		Churn:       spec,
	}
	res := CheckShardInvarianceChurn(t, build, &movingFlood{halfAt: msgs / 2}, cfg, 34)
	if t.Failed() {
		t.FailNow()
	}
	CheckChurnLedger(t, res)
	if res.CachedKeys == 0 {
		t.Error("the scenario never cached a key; the caching half is vacuous")
	}
	if res.Crashes == 0 {
		t.Error("the regional kill crashed nothing")
	}
	if res.Joins == 0 {
		t.Error("the flash crowd joined nothing; the join-during-hotspot half is vacuous")
	}
	if res.LinksRebuilt == 0 {
		t.Error("repair rebuilt no links")
	}
}
