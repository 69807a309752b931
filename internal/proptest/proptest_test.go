package proptest

import (
	"fmt"
	"testing"

	"repro/internal/graph"
	"repro/internal/load"
	"repro/internal/metric"
	"repro/internal/replica"
	"repro/internal/rng"
	"repro/internal/route"
)

// TestPropReplicaRoutingInvariants drives nearest-replica routing over
// random universes: plain and congestion-penalized greedy walks must
// make strict set-distance progress, and every delivery must end on a
// live member of its target set.
func TestPropReplicaRoutingInvariants(t *testing.T) {
	for iter := 0; iter < 60; iter++ {
		gen := New(uint64(1000 + iter))
		g := gen.Graph(t)
		opt := route.Options{TracePath: true}
		if iter%3 == 1 {
			opt.Congestion = func(q metric.Point) float64 { return float64(q % 5) }
		}
		if iter%3 == 2 {
			opt.DirectedOnly = true
		}
		r := route.New(g, opt)
		for i := 0; i < 20; i++ {
			from := gen.AlivePoint(t, g)
			targets := gen.Targets(t, g)
			res, err := r.RouteAny(rng.New(uint64(i)), from, targets)
			if err != nil {
				t.Fatalf("iter %d: %v", iter, err)
			}
			CheckGreedyProgress(t, g, targets, res)
			CheckEndpoints(t, g, from, targets, res)
			if t.Failed() {
				t.Fatalf("iter %d message %d failed (seed %d)", iter, i, 1000+iter)
			}
		}
	}
}

// TestPropDeliveredEndpointsAllPolicies extends the endpoint invariant
// to every dead-end policy (whose paths may move backward, so only the
// endpoint check applies).
func TestPropDeliveredEndpointsAllPolicies(t *testing.T) {
	for iter := 0; iter < 30; iter++ {
		gen := New(uint64(2000 + iter))
		g := gen.Graph(t)
		for _, policy := range []route.DeadEndPolicy{route.Terminate, route.RandomReroute, route.Backtrack} {
			r := route.New(g, route.Options{DeadEnd: policy, TracePath: true})
			for i := 0; i < 10; i++ {
				from := gen.AlivePoint(t, g)
				targets := gen.Targets(t, g)
				res, err := r.RouteAny(rng.New(uint64(i)), from, targets)
				if err != nil {
					t.Fatalf("iter %d %s: %v", iter, policy, err)
				}
				CheckEndpoints(t, g, from, targets, res)
				if t.Failed() {
					t.Fatalf("iter %d %s message %d failed (seed %d)", iter, policy, i, 2000+iter)
				}
			}
		}
	}
}

// TestPropQueueReplayWorkerInvariance fuzzes the full traffic pipeline
// — random graphs, workloads, congestion penalties, replication and
// caching — and requires byte-identical results across 1/2/8 workers.
func TestPropQueueReplayWorkerInvariance(t *testing.T) {
	for iter := 0; iter < 12; iter++ {
		gen := New(uint64(3000 + iter))
		g := gen.Graph(t)
		wl := gen.Workload()
		cfg := load.Config{
			Messages: 100 + gen.src.Intn(200),
			Route:    route.Options{DeadEnd: route.Backtrack},
		}
		if gen.src.Bool(0.5) {
			cfg.Penalty = 1
		}
		if gen.src.Bool(0.3) {
			cfg.DepthPenalty = 1
		}
		switch gen.src.Intn(3) {
		case 1:
			cfg.Replication = &replica.Options{K: 2 + gen.src.Intn(3)}
		case 2:
			cfg.Replication = &replica.Options{K: 2, CacheThreshold: 10, CacheCopies: 3}
		}
		res := CheckWorkerInvariance(t, g, wl, cfg, uint64(4000+iter))
		if t.Failed() {
			t.Fatalf("iter %d failed (seed %d, workload %s)", iter, 3000+iter, wl.Name())
		}
		if res.Injected != res.Delivered+res.Failed {
			t.Fatalf("iter %d: conservation broke: %d != %d + %d",
				iter, res.Injected, res.Delivered, res.Failed)
		}
	}
}

// TestPropShardInvariance fuzzes the live engine across event-loop
// shard counts: random graphs, workloads, arrival models, aggregation
// and static replication, each run at 1/2/4/7 shards, must produce
// byte-identical results. Sequential-fallback configurations —
// congestion penalties, closed-loop aggregation — are drawn too, so
// the eligibility gate itself is pinned never to disturb results.
func TestPropShardInvariance(t *testing.T) {
	for iter := 0; iter < 10; iter++ {
		gen := New(uint64(6000 + iter))
		g := gen.Graph(t)
		wl := gen.Workload()
		cfg := load.Config{
			Messages: 100 + gen.src.Intn(200),
			Live:     true,
			Route:    route.Options{DeadEnd: route.Backtrack},
		}
		if gen.src.Bool(0.4) {
			cfg.Aggregate = true
		}
		switch gen.src.Intn(4) {
		case 1:
			cfg.Arrival = load.Periodic(1 + 4*gen.src.Float64())
		case 2:
			cfg.Arrival = load.Poisson(1 + 4*gen.src.Float64())
		case 3:
			cfg.Arrival = load.ClosedLoop(2+gen.src.Intn(15), gen.src.Float64())
		}
		if gen.src.Bool(0.3) {
			cfg.Replication = &replica.Options{K: 2 + gen.src.Intn(3)}
		}
		if gen.src.Bool(0.25) {
			cfg.Penalty = 1 // a sequential-fallback draw
		}
		res := CheckShardInvariance(t, g, wl, cfg, uint64(7000+iter))
		if t.Failed() {
			t.Fatalf("iter %d failed (seed %d, workload %s)", iter, 6000+iter, wl.Name())
		}
		if res.Injected != res.Delivered+res.Failed {
			t.Fatalf("iter %d: conservation broke: %d != %d + %d",
				iter, res.Injected, res.Delivered, res.Failed)
		}
	}
}

// TestPropShardInvariancePIT fuzzes the response path across shard
// counts: random graphs and workloads (floods included, where
// suppression is heaviest) under ModeLivePIT, with random interest
// lifetimes and waiter bounds — short lifetimes make timeouts race
// answer services, tight bounds overflow waiter lists — and a mix of
// open- and closed-loop arrivals (PIT, unlike aggregation, stays
// sharded under closed loops). Results must be byte-identical at
// 1/2/4/7 shards, with the suppression ledger balanced.
func TestPropShardInvariancePIT(t *testing.T) {
	suppressed := 0
	for iter := 0; iter < 10; iter++ {
		gen := New(uint64(6600 + iter))
		g := gen.Graph(t)
		wl := gen.Workload()
		cfg := load.Config{
			Messages: 100 + gen.src.Intn(200),
			Live:     true,
			PIT:      true,
			Route:    route.Options{DeadEnd: route.Backtrack},
		}
		switch gen.src.Intn(3) {
		case 0:
			cfg.PITTimeout = 0.5 + 4*gen.src.Float64() // races answer services
		case 1:
			cfg.PITTimeout = 64
		}
		if gen.src.Bool(0.3) {
			cfg.PITWaiters = 1 + gen.src.Intn(3) // overflows under floods
		}
		switch gen.src.Intn(4) {
		case 1:
			cfg.Arrival = load.Periodic(1 + 4*gen.src.Float64())
		case 2:
			cfg.Arrival = load.Poisson(1 + 4*gen.src.Float64())
		case 3:
			cfg.Arrival = load.ClosedLoop(2+gen.src.Intn(15), gen.src.Float64())
		}
		if gen.src.Bool(0.3) {
			cfg.Replication = &replica.Options{K: 2 + gen.src.Intn(3)}
		}
		res := CheckShardInvariance(t, g, wl, cfg, uint64(7600+iter))
		if t.Failed() {
			t.Fatalf("iter %d failed (seed %d, workload %s)", iter, 6600+iter, wl.Name())
		}
		if res.Injected != res.Delivered+res.Failed {
			t.Fatalf("iter %d: conservation broke: %d != %d + %d",
				iter, res.Injected, res.Delivered, res.Failed)
		}
		if res.Suppressed != res.MulticastFanout+res.PITExpired {
			t.Fatalf("iter %d: suppression imbalance: %d != %d + %d",
				iter, res.Suppressed, res.MulticastFanout, res.PITExpired)
		}
		suppressed += res.Suppressed
	}
	if suppressed == 0 {
		t.Error("no iteration suppressed anything; the PIT fuzz is vacuous")
	}
}

// movingFlood floods victim a for the first half of the run and victim
// b for the second — the moving-hotspot workload behind internal/load's
// cache scenario, rebuilt over the public Generator interface.
type movingFlood struct {
	g      *graph.Graph
	a, b   metric.Point
	drawn  int
	halfAt int
}

func (f *movingFlood) Name() string { return "moving-flood" }

func (f *movingFlood) Bind(g *graph.Graph, src *rng.Source) error {
	f.g = g
	var ok bool
	if f.a, ok = g.RandomAlive(src); !ok {
		return fmt.Errorf("moving-flood: no live nodes")
	}
	for {
		if f.b, ok = g.RandomAlive(src); !ok {
			return fmt.Errorf("moving-flood: no second live node")
		}
		if f.b != f.a {
			break
		}
	}
	f.drawn = 0
	return nil
}

func (f *movingFlood) Pair(src *rng.Source) (metric.Point, metric.Point, error) {
	target := f.a
	if f.drawn >= f.halfAt {
		target = f.b
	}
	f.drawn++
	for i := 0; i < 256; i++ {
		if from, ok := f.g.RandomAlive(src); ok && from != target {
			return from, target, nil
		}
	}
	return 0, 0, fmt.Errorf("moving-flood: no source distinct from %d", target)
}

// TestPropShardInvarianceMovingHotspot pins shard-count invariance on
// the moving-hotspot cache scenario: live mode with popularity-triggered
// caching, where the flood victim moves mid-run. Caching makes this a
// sequential-fallback configuration at every shard count — the point is
// that cache promotions stay byte-identical however many shards are
// requested.
func TestPropShardInvarianceMovingHotspot(t *testing.T) {
	const msgs = 400
	ring, err := metric.NewRing(512)
	if err != nil {
		t.Fatal(err)
	}
	g, err := graph.BuildIdeal(ring, graph.PaperConfig(9), rng.New(33))
	if err != nil {
		t.Fatal(err)
	}
	for _, aggregate := range []bool{false, true} {
		cfg := load.Config{
			Messages:    msgs,
			Live:        true,
			Aggregate:   aggregate,
			Route:       route.Options{DeadEnd: route.Backtrack},
			Replication: &replica.Options{CacheThreshold: 16, CacheCopies: 4},
		}
		res := CheckShardInvariance(t, g, &movingFlood{halfAt: msgs / 2}, cfg, 34)
		if t.Failed() {
			t.Fatalf("aggregate=%v diverged", aggregate)
		}
		if res.CachedKeys == 0 {
			t.Errorf("aggregate=%v: the cache scenario never cached a key; the invariance run is vacuous", aggregate)
		}
	}
}

// TestPropSingleAndMultiTargetAgree pins the fallback contract on
// random universes: RouteAny with a single-member set must equal Route
// with that target, for every dead-end policy.
func TestPropSingleAndMultiTargetAgree(t *testing.T) {
	for iter := 0; iter < 30; iter++ {
		gen := New(uint64(5000 + iter))
		g := gen.Graph(t)
		policy := []route.DeadEndPolicy{route.Terminate, route.RandomReroute, route.Backtrack}[iter%3]
		r := route.New(g, route.Options{DeadEnd: policy, TracePath: true})
		for i := 0; i < 10; i++ {
			from := gen.AlivePoint(t, g)
			to := gen.AlivePoint(t, g)
			single, err := r.Route(rng.New(uint64(i)), from, to)
			if err != nil {
				t.Fatal(err)
			}
			set, err := r.RouteAny(rng.New(uint64(i)), from, []metric.Point{to})
			if err != nil {
				t.Fatal(err)
			}
			if single.Delivered != set.Delivered || single.Hops != set.Hops ||
				single.Target != set.Target {
				t.Fatalf("iter %d: Route=%+v RouteAny=%+v (seed %d)", iter, single, set, 5000+iter)
			}
		}
	}
}
