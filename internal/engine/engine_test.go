package engine

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/metric"
	"repro/internal/replica"
	"repro/internal/rng"
	"repro/internal/route"
)

// newTestPlacement builds a k-way hash-spread placement over g's space.
func newTestPlacement(t testing.TB, g *graph.Graph, k int, seed uint64) *replica.Placement {
	t.Helper()
	p, err := replica.NewPlacement(g.Space(), replica.Options{K: k}, seed)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func testGraph(t testing.TB, n, links int, seed uint64, failEvery int) *graph.Graph {
	t.Helper()
	ring, err := metric.NewRing(n)
	if err != nil {
		t.Fatal(err)
	}
	g, err := graph.BuildIdeal(ring, graph.PaperConfig(links), rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	for p := failEvery; failEvery > 0 && p < n; p += failEvery {
		g.Fail(metric.Point(p))
	}
	return g
}

func testMessages(t testing.TB, g *graph.Graph, n int, seed uint64) []Message {
	t.Helper()
	src := rng.New(seed)
	msgs := make([]Message, n)
	for i := range msgs {
		from, ok := g.RandomAlive(src)
		if !ok {
			t.Fatal("no live nodes")
		}
		to, ok := g.RandomAlive(src)
		if !ok {
			t.Fatal("no live nodes")
		}
		for to == from {
			to, _ = g.RandomAlive(src)
		}
		msgs[i] = Message{From: from, Key: to}
	}
	return msgs
}

func periodicSchedule(n int, rate float64) Schedule {
	initial := make([]Injection, n)
	for i := range initial {
		initial[i] = Injection{Msg: i, Time: float64(i) / rate}
	}
	return Schedule{Initial: initial}
}

func baseConfig() Config {
	return Config{
		Capacity:  1,
		Workers:   1,
		Shards:    1,
		BatchSize: 32,
		Route:     route.Options{DeadEnd: route.Backtrack},
	}
}

// closedLoopSchedule is the closed-loop arrival model of package load:
// clients start one message each at time 0, and message m's completion
// at `at` injects message m+clients at at+think.
func closedLoopSchedule(n, clients int, think float64) Schedule {
	initial := make([]Injection, min(clients, n))
	for i := range initial {
		initial[i] = Injection{Msg: i}
	}
	return Schedule{
		Initial: initial,
		Completed: func(msg int, at float64) (Injection, bool) {
			if next := msg + clients; next < n {
				return Injection{Msg: next, Time: at + think}, true
			}
			return Injection{}, false
		},
	}
}

// TestLiveMatchesSnapshotPlain pins a structural property of the
// engine: without congestion penalties, caching, or aggregation, the
// per-hop decisions of live mode are the same pure greedy decisions
// snapshot mode precomputes, so the two modes must agree byte-for-byte
// — open-loop and closed-loop alike. Every eighth lookup (all of client
// 3's chain under the closed loop) and every seventh from 5 on is born
// delivered, so zero-hop completions unlock their successors both from
// the up-front schedule and from inside a chain.
func TestLiveMatchesSnapshotPlain(t *testing.T) {
	g := testGraph(t, 512, 9, 3, 5)
	msgs := testMessages(t, g, 300, 4)
	for i := range msgs {
		if i%8 == 3 || i%7 == 5 {
			msgs[i].Key = msgs[i].From
		}
	}
	for _, tc := range []struct {
		name  string
		sched Schedule
	}{
		{"periodic", periodicSchedule(len(msgs), 2)},
		{"closed/think=0", closedLoopSchedule(len(msgs), 8, 0)},
		{"closed/think=0.5", closedLoopSchedule(len(msgs), 8, 0.5)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := baseConfig()
			// Snapshot mode always traces; a live run traces on request.
			cfg.Route.TracePath = true
			snap, err := Run(g, msgs, tc.sched, cfg, rng.New(9))
			if err != nil {
				t.Fatal(err)
			}
			cfg.Mode = ModeLive
			live, err := Run(g, msgs, tc.sched, cfg, rng.New(9))
			if err != nil {
				t.Fatal(err)
			}
			if snap.Injected != len(msgs) {
				t.Fatalf("injected %d of %d", snap.Injected, len(msgs))
			}
			// The resolved plan is the one pair allowed to differ.
			live.Plan, live.PlanReason = snap.Plan, snap.PlanReason
			if !reflect.DeepEqual(snap, live) {
				t.Error("plain live run diverged from plain snapshot run")
			}
		})
	}
}

// TestLiveDepthReactsToBacklog checks that live depth-aware routing
// actually consults the queues: under overload its load profile must
// diverge from plain greedy's while conservation holds.
func TestLiveDepthReactsToBacklog(t *testing.T) {
	g := testGraph(t, 512, 9, 5, 4)
	msgs := testMessages(t, g, 800, 6)
	sched := periodicSchedule(len(msgs), 24) // well past capacity
	plainCfg := baseConfig()
	plainCfg.Mode = ModeLive
	plain, err := Run(g, msgs, sched, plainCfg, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	depthCfg := plainCfg
	depthCfg.DepthPenalty = 1
	depth, err := Run(g, msgs, sched, depthCfg, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(plain.Loads, depth.Loads) {
		t.Error("live depth penalty did not change the load profile")
	}
	deliveredPlain, deliveredDepth := 0, 0
	for i := range msgs {
		if plain.Results[i].Delivered {
			deliveredPlain++
		}
		if depth.Results[i].Delivered {
			deliveredDepth++
		}
	}
	if plain.Injected != len(msgs) || depth.Injected != len(msgs) {
		t.Errorf("injections lost: %d / %d of %d", plain.Injected, depth.Injected, len(msgs))
	}
	if depth.MaxQueueDepth >= plain.MaxQueueDepth {
		t.Errorf("live depth-aware peak queue %d should beat greedy %d under overload",
			depth.MaxQueueDepth, plain.MaxQueueDepth)
	}
}

// TestAggregateCoalescesFlood drives a single-key flood into overload:
// aggregation must coalesce a substantial share of the lookups, charge
// strictly less service, and still account for every message.
func TestAggregateCoalescesFlood(t *testing.T) {
	g := testGraph(t, 512, 9, 11, 0)
	src := rng.New(12)
	victim, _ := g.RandomAlive(src)
	msgs := make([]Message, 600)
	for i := range msgs {
		from, _ := g.RandomAlive(src)
		for from == victim {
			from, _ = g.RandomAlive(src)
		}
		msgs[i] = Message{From: from, Key: victim}
	}
	sched := periodicSchedule(len(msgs), 16)
	cfg := baseConfig()
	cfg.Mode = ModeLive
	plain, err := Run(g, msgs, sched, cfg, rng.New(13))
	if err != nil {
		t.Fatal(err)
	}
	cfg.Mode = ModeLiveAggregate
	agg, err := Run(g, msgs, sched, cfg, rng.New(13))
	if err != nil {
		t.Fatal(err)
	}
	if agg.Aggregated == 0 {
		t.Fatal("overloaded flood coalesced nothing")
	}
	if agg.Services >= plain.Services {
		t.Errorf("aggregation did not shed service load: %d vs %d", agg.Services, plain.Services)
	}
	if agg.Makespan >= plain.Makespan {
		t.Errorf("aggregation did not shorten the makespan: %.2f vs %.2f", agg.Makespan, plain.Makespan)
	}
	delivered, failed := 0, 0
	for i := range msgs {
		if agg.Results[i].Delivered {
			delivered++
			if agg.Results[i].Target != victim {
				t.Fatalf("message %d delivered to %d, not the victim %d", i, agg.Results[i].Target, victim)
			}
		} else {
			failed++
		}
	}
	if delivered+failed != len(msgs) {
		t.Errorf("conservation broken: %d + %d != %d", delivered, failed, len(msgs))
	}
	if agg.Injected != len(msgs) {
		t.Errorf("injected %d of %d", agg.Injected, len(msgs))
	}
	if len(agg.Latencies) != delivered {
		t.Errorf("%d latencies for %d deliveries", len(agg.Latencies), delivered)
	}
}

// TestAggregateClosedLoopConservation pins the trickiest aggregation
// path: coalesced messages must still unlock their closed-loop
// successors, including followers that attach after their carrier
// already completed.
func TestAggregateClosedLoopConservation(t *testing.T) {
	g := testGraph(t, 256, 8, 15, 0)
	src := rng.New(16)
	victim, _ := g.RandomAlive(src)
	const n, clients = 300, 24
	msgs := make([]Message, n)
	for i := range msgs {
		from, _ := g.RandomAlive(src)
		for from == victim {
			from, _ = g.RandomAlive(src)
		}
		msgs[i] = Message{From: from, Key: victim}
	}
	initial := make([]Injection, clients)
	for i := range initial {
		initial[i] = Injection{Msg: i}
	}
	sched := Schedule{
		Initial: initial,
		Completed: func(msg int, at float64) (Injection, bool) {
			next := msg + clients
			if next >= n {
				return Injection{}, false
			}
			return Injection{Msg: next, Time: at}, true
		},
	}
	cfg := baseConfig()
	cfg.Capacity = 0.5
	cfg.Mode = ModeLiveAggregate
	out, err := Run(g, msgs, sched, cfg, rng.New(17))
	if err != nil {
		t.Fatal(err)
	}
	if out.Injected != n {
		t.Fatalf("closed loop stalled: injected %d of %d (aggregated %d)", out.Injected, n, out.Aggregated)
	}
	if out.Aggregated == 0 {
		t.Error("closed-loop flood coalesced nothing")
	}
}

// TestLivePlacementResolvesPerInjection checks that live mode consults
// the placement at injection time: a run with replication must fan its
// deliveries across replicas, and every target must be a legal replica.
func TestLivePlacementResolvesPerInjection(t *testing.T) {
	g := testGraph(t, 1024, 10, 19, 0)
	src := rng.New(20)
	victim, _ := g.RandomAlive(src)
	msgs := make([]Message, 400)
	for i := range msgs {
		from, _ := g.RandomAlive(src)
		for from == victim {
			from, _ = g.RandomAlive(src)
		}
		msgs[i] = Message{From: from, Key: victim}
	}
	placement := newTestPlacement(t, g, 4, 88)
	cfg := baseConfig()
	cfg.Mode = ModeLive
	cfg.Placement = placement
	out, err := Run(g, msgs, periodicSchedule(len(msgs), 8), cfg, rng.New(21))
	if err != nil {
		t.Fatal(err)
	}
	legal := map[metric.Point]bool{}
	for _, p := range placement.Targets(victim) {
		legal[p] = true
	}
	served := map[metric.Point]int{}
	for i := range msgs {
		if out.Results[i].Delivered {
			if !legal[out.Results[i].Target] {
				t.Fatalf("message %d delivered to non-replica %d", i, out.Results[i].Target)
			}
			served[out.Results[i].Target]++
		}
	}
	if len(served) < 2 {
		t.Errorf("replicated flood served by %d point(s), want fan-out", len(served))
	}
}

// TestPropEventHeapTotalOrder is the engine's heap invariant: under
// the strict (time, msg, idx) order, the pop sequence is sorted and
// independent of push order — the property the whole simulation's
// determinism rests on. Each seeded event set is pushed whole and then
// drained, pushed in a permuted order, and pushed with pops
// interleaved; its idx includes the PIT timeouts' -1 and the largest
// idx a run can reach, and its msg the last ones the packed key holds.
// A last script holds more than 2^14 events at once, so sifts cross
// more than fourteen levels.
func TestPropEventHeapTotalOrder(t *testing.T) {
	edgeMsgs := []int{maxPackedMsgs - 2, maxPackedMsgs - 1}
	for iter := 0; iter < 20; iter++ {
		src := rng.New(uint64(6000 + iter))
		n := 50 + src.Intn(200)
		events := make([]event, n)
		for i := range events {
			e := event{time: float64(src.Intn(40)) / 4, msg: src.Intn(60), idx: src.Intn(6)}
			switch src.Intn(16) {
			case 0, 1:
				e.idx = -1
			case 2:
				e.idx = 2 * maxPackedHops
			case 3:
				e.msg = edgeMsgs[src.Intn(len(edgeMsgs))]
			}
			events[i] = e
		}
		whole := make([]queueStep, 0, n)
		permuted := make([]queueStep, 0, n)
		interleaved := make([]queueStep, 0, 2*n)
		for i, j := range src.Perm(n) {
			whole = append(whole, queueStep{e: events[i]})
			permuted = append(permuted, queueStep{e: events[j]})
			interleaved = append(interleaved, queueStep{e: events[i]})
			if src.Intn(5) < 2 {
				interleaved = append(interleaved, queueStep{pop: true})
			}
		}
		checkQueueScript(t, whole)
		checkQueueScript(t, permuted)
		checkQueueScript(t, interleaved)
	}
	// The deep script alternates blocks of pushes and pops, so the
	// reference re-sorts once per block.
	src := rng.New(6100)
	var deep []queueStep
	for _, block := range [][2]int{{12000, 2000}, {12000, 10000}, {4000, 0}} {
		for i := 0; i < block[0]; i++ {
			deep = append(deep, queueStep{e: event{time: float64(src.Intn(1 << 12)), msg: src.Intn(1 << 16), idx: src.Intn(40) - 1}})
		}
		for i := 0; i < block[1]; i++ {
			deep = append(deep, queueStep{pop: true})
		}
	}
	if peak := checkQueueScript(t, deep); peak <= 1<<14 {
		t.Fatalf("the deep script held at most %d events, want more than %d", peak, 1<<14)
	}
}

// TestRunRejectsMalformedSchedule pins Run's schedule contract in
// every mode's admission: an injection of a message out of range, at a
// negative or non-finite instant, before the completion that unlocked
// it, or of a message already injected or scheduled, is an error — not
// an index panic, a silently dropped lookup, or a message injected
// twice while another never is (which the ledger's count alone cannot
// see).
func TestRunRejectsMalformedSchedule(t *testing.T) {
	g := testGraph(t, 64, 5, 23, 0)
	msgs := testMessages(t, g, 2, 24)
	// unlocks is a closed loop in which message 0's completion at `at`
	// injects next(at).
	unlocks := func(next func(at float64) Injection) Schedule {
		return Schedule{
			Initial: []Injection{{Msg: 0, Time: 0}},
			Completed: func(m int, at float64) (Injection, bool) {
				return next(at), m == 0
			},
		}
	}
	cases := []struct {
		name  string
		sched Schedule
	}{
		{"message past the end", Schedule{Initial: []Injection{{0, 0}, {Msg: 5}}}},
		{"negative message", Schedule{Initial: []Injection{{0, 0}, {Msg: -1}}}},
		{"negative time, message twice", Schedule{Initial: []Injection{{0, 0}, {Msg: 0, Time: -3}}}},
		{"message twice", Schedule{Initial: []Injection{{0, 0}, {Msg: 0, Time: 5}}}},
		{"NaN time", Schedule{Initial: []Injection{{0, 0}, {Msg: 1, Time: math.NaN()}}}},
		{"infinite time", Schedule{Initial: []Injection{{0, 0}, {Msg: 1, Time: math.Inf(1)}}}},
		{"unlocks a message past the end", unlocks(func(at float64) Injection { return Injection{Msg: 2, Time: at} })},
		{"unlocks into the past", unlocks(func(at float64) Injection { return Injection{Msg: 1, Time: at - 1} })},
		{"unlocks an injected message", unlocks(func(at float64) Injection { return Injection{Msg: 0, Time: at} })},
		{"unlocks a scheduled message", func() Schedule {
			s := unlocks(func(at float64) Injection { return Injection{Msg: 1, Time: at} })
			s.Initial = append(s.Initial, Injection{Msg: 1, Time: 1e6})
			return s
		}()},
	}
	for _, mode := range []Mode{ModeSnapshot, ModeLive} {
		for _, tc := range cases {
			cfg := baseConfig()
			cfg.Mode = mode
			if out, err := Run(g, msgs, tc.sched, cfg, rng.New(1)); err == nil {
				t.Errorf("%s: %s: accepted, injected %d of %d", mode, tc.name, out.Injected, len(msgs))
			}
		}
		// The well-formed closed loop the bad ones perturb still runs.
		cfg := baseConfig()
		cfg.Mode = mode
		good := unlocks(func(at float64) Injection { return Injection{Msg: 1, Time: at} })
		if out, err := Run(g, msgs, good, cfg, rng.New(1)); err != nil || out.CheckLedgers() != nil {
			t.Errorf("%s: well-formed closed loop: %v", mode, err)
		}
	}
}

// TestConfigValidation exercises the engine's resolved-config checks.
func TestConfigValidation(t *testing.T) {
	g := testGraph(t, 64, 5, 23, 0)
	msgs := testMessages(t, g, 4, 24)
	sched := periodicSchedule(len(msgs), 1)
	bad := []Config{
		{},                                   // zero capacity
		{Capacity: 1},                        // zero workers
		{Capacity: 1, Workers: 1},            // zero shards
		{Capacity: 1, Workers: 1, Shards: 1}, // zero batch
		{Capacity: 1, Workers: 1, Shards: -3, BatchSize: 32},                                  // negative shards
		{Capacity: 1, Workers: 1, Shards: 1, BatchSize: 32, Mode: modeEnd},                    // mode out of range
		{Capacity: 1, Workers: 1, Shards: 1, BatchSize: 32, Penalty: -1},                      // negative penalty
		{Capacity: 1, Workers: 1, Shards: 1, BatchSize: 32, Mode: ModeLive, DepthPenalty: -1}, // negative depth
		{Capacity: 1, Workers: 1, Shards: 65, BatchSize: 32, Mode: ModeLive},                  // shards exceed the 64 nodes
	}
	for i, cfg := range bad {
		if _, err := Run(g, msgs, sched, cfg, rng.New(1)); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
	good := baseConfig()
	if _, err := Run(g, msgs, sched, good, rng.New(1)); err != nil {
		t.Errorf("resolved config rejected: %v", err)
	}
}
