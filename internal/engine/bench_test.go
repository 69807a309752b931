package engine

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"repro/internal/failure"
	"repro/internal/graph"
	"repro/internal/metric"
	"repro/internal/rng"
	"repro/internal/route"
)

// The hot-path contract these benchmarks pin: once slices are warm,
// processing one event — heap pop, queue mechanics, forwarding
// decision, heap push — allocates nothing, under the plain greedy
// policy and under Backtrack alike. What a live message costs beyond
// its events — walker, traced path, rng stream, latency slot — comes
// out of per-run slabs (runner.arena, runner.srcs), so a whole live run
// stays under half an allocation per message
// (TestLiveRunAllocsPerMessage).

// newCyclicSnapshotRunner builds a snapshot-mode runner whose single
// message replays a pathLen-hop tour of the ring over and over — pure
// event-loop mechanics, no routing.
func newCyclicSnapshotRunner(tb testing.TB, nodes, pathLen int) *runner {
	tb.Helper()
	g := testGraph(tb, nodes, 1, 23, 0)
	r := newRunner(g, []Message{{From: 0, Key: 1}}, Schedule{}, baseConfig(), rng.New(1))
	path := make([]metric.Point, pathLen)
	for i := range path {
		path[i] = metric.Point(i % nodes)
	}
	r.snap.paths[0] = path
	r.snap.delivered[0] = false
	r.snap.routed = 1
	return r
}

// stepEvents drives k events through the snapshot loop, re-injecting
// the message after its path exhausts so the loop never goes idle.
func (r *runner) stepEvents(k int) {
	for i := 0; i < k; i++ {
		if r.snap.h.Len() == 0 {
			r.enqueue(Injection{Msg: 0, Time: r.out.Makespan + 1})
		}
		r.processOne(r.snap.h.Pop())
	}
}

// stepLive drives k steps of the one-owner driver — the unified live
// handlers, popped in global event order — re-injecting the message
// when its walk ends (that step is the admission, walker creation
// included; every other step is one event).
func (r *runner) stepLive(k int) {
	for i := 0; i < k; i++ {
		if !r.step() {
			r.pend.Push(Injection{Msg: 0, Time: r.shards.shards[0].makespan + 1})
		}
	}
}

// TestSnapshotHotPathAllocs pins the snapshot event loop at zero
// allocations per event — including the telemetry hook branches, which
// a default config leaves nil: disabled telemetry must stay free.
func TestSnapshotHotPathAllocs(t *testing.T) {
	r := newCyclicSnapshotRunner(t, 64, 4096)
	r.stepEvents(4096) // warm the heap, every queue, and the counters
	if avg := testing.AllocsPerRun(50, func() { r.stepEvents(256) }); avg != 0 {
		t.Errorf("snapshot event processing allocates %.2f per 256-event run, want 0", avg)
	}
}

func BenchmarkProcessOneSnapshot(b *testing.B) {
	r := newCyclicSnapshotRunner(b, 64, 4096)
	r.stepEvents(4096)
	b.ReportAllocs()
	b.ResetTimer()
	r.stepEvents(b.N)
}

// newGreedyLiveRunner builds a live-mode runner on a bare ring (no
// long links), where greedy routing from 0 to the antipode advances
// one ring edge per service: the longest possible steady-state walk,
// so thousands of live forwarding decisions run without a walker
// creation in between. (Under Backtrack the same walk also pushes a
// frame, evicts one and appends a tried entry at every service.)
func newGreedyLiveRunner(tb testing.TB, nodes int, policy route.DeadEndPolicy) *runner {
	tb.Helper()
	ring, err := metric.NewRing(nodes)
	if err != nil {
		tb.Fatal(err)
	}
	g, err := graph.BuildIdeal(ring, graph.PaperConfig(0), rng.New(7))
	if err != nil {
		tb.Fatal(err)
	}
	cfg := baseConfig()
	cfg.Mode = ModeLive
	cfg.Route = route.Options{DeadEnd: policy, MaxHops: nodes} // the walk is nodes/2 hops; don't cap it
	msgs := []Message{{From: 0, Key: metric.Point(nodes / 2)}}
	return newRunner(g, msgs, Schedule{Initial: []Injection{{Msg: 0, Time: 0}}}, cfg, rng.New(1))
}

// TestLiveHotPathAllocs pins the live forwarding path at zero
// allocations per event with the (default) nil telemetry recorder —
// the observability layer's disabled-is-free contract — under the
// plain greedy policy and under Backtrack, the one every engine
// workload routes with.
func TestLiveHotPathAllocs(t *testing.T) {
	for _, policy := range []route.DeadEndPolicy{route.Terminate, route.Backtrack} {
		r := newGreedyLiveRunner(t, 8192, policy)
		r.stepLive(1) // the admission: walker creation is a per-message cost
		// 15 calls x 256 events stay inside the 4096-hop walk: every
		// measured event is a pure forwarding step.
		if avg := testing.AllocsPerRun(14, func() { r.stepLive(256) }); avg != 0 {
			t.Errorf("%s: live event processing allocates %.2f per 256-event run, want 0", policy, avg)
		}
		if r.err != nil {
			t.Fatal(r.err)
		}
	}
}

func BenchmarkProcessOneLive(b *testing.B) {
	for _, policy := range []route.DeadEndPolicy{route.Terminate, route.Backtrack} {
		b.Run(policy.String(), func(b *testing.B) {
			r := newGreedyLiveRunner(b, 8192, policy)
			b.ReportAllocs()
			b.ResetTimer()
			r.stepLive(b.N) // re-injection restarts the tour when a walk delivers
			b.StopTimer()
			if r.err != nil {
				b.Fatal(r.err)
			}
		})
	}
}

// liveEngineScenario is the whole-run scenario BenchmarkLiveEngine
// times and TestLiveRunAllocsPerMessage counts: uniform pairs on an
// ideal 64×64 torus, Backtrack routing, 256 periodic injections per
// tick — ftrmark's live_seq and live_sharded at a quarter of the side.
func liveEngineScenario(tb testing.TB, msgs int) (*graph.Graph, []Message, Schedule) {
	tb.Helper()
	torus, err := metric.NewTorus(64, 2)
	if err != nil {
		tb.Fatal(err)
	}
	g, err := graph.BuildIdeal(torus, graph.PaperConfigFor(torus, 12), rng.New(5))
	if err != nil {
		tb.Fatal(err)
	}
	return g, testMessages(tb, g, msgs, 3), periodicSchedule(msgs, 256)
}

// TestLiveRunAllocsPerMessage is the tier-1 guard on what one lookup
// costs the heap: a whole live Run — runner set-up, every walker, rng
// stream, queue, heap and result included — divided by its messages.
// The walker and stream slabs, the queue slab and the tried stack took
// ftrmark's live_seq from 12.25 allocations per message to 0.13 (the
// bar was 1.5); the runs here measure 0.02–0.09, and the limit is 0.5
// so that a single allocation per message creeping back (a per-walker
// buffer, a per-message Source, a closure in admit) fails at either
// size, under either driver.
func TestLiveRunAllocsPerMessage(t *testing.T) {
	sizes := []int{1 << 12, 1 << 14}
	if testing.Short() {
		sizes = sizes[:1]
	}
	for _, n := range sizes {
		g, msgs, sched := liveEngineScenario(t, n)
		for _, shards := range []int{1, 2} {
			cfg := baseConfig()
			cfg.Mode = ModeLive
			cfg.Shards = shards
			avg := testing.AllocsPerRun(2, func() {
				if _, err := Run(g, msgs, sched, cfg, rng.New(9)); err != nil {
					t.Fatal(err)
				}
			})
			if perMsg := avg / float64(n); perMsg > 0.5 {
				t.Errorf("%d messages, shards=%d: %.3f allocations per message (%.0f per run), want ≤ 0.5",
					n, shards, perMsg, avg)
			}
		}
	}
}

// churnPITScenario is ftrmark's churn_pit at under half the side: PIT
// lookups on an ideal 32×32 torus, 32 injections per tick, while a
// regional kill (a quarter of the way through the injections) and a
// flash join (half way) spread by gossip with link repair. The keys are
// one flooded victim, or skewed about as Zipf(1): rank ⌊n^u⌋ for
// uniform u, the ranks scattered over the torus; either way the hottest
// key is protected from the kill. A run edits the graph, so every run
// needs a scenario of its own.
func churnPITScenario(tb testing.TB, n int, flood bool) (*graph.Graph, []Message, Schedule, Config) {
	tb.Helper()
	torus, err := metric.NewTorus(32, 2)
	if err != nil {
		tb.Fatal(err)
	}
	g, err := graph.BuildIdeal(torus, graph.PaperConfigFor(torus, 10), rng.New(5))
	if err != nil {
		tb.Fatal(err)
	}
	src, size := rng.New(3), g.Size()
	hottest := metric.Point(389 % size)
	msgs := make([]Message, n)
	for i := range msgs {
		key := hottest
		if !flood {
			rank := int(math.Pow(float64(size), src.Float64()))
			key = metric.Point(rank * 389 % size) // 389 is coprime to the size
		}
		from := metric.Point(src.Intn(size))
		for from == key {
			from = metric.Point(src.Intn(size))
		}
		msgs[i] = Message{From: from, Key: key}
	}
	const rate = 32
	horizon := float64(n) / rate
	spec := failure.ChurnSpec{
		KillFrac: 0.15, KillAt: horizon / 4, FlashJoin: 16, FlashAt: horizon / 2,
		ProbeTimeout: 4, GossipInterval: 1, GossipFanout: 2, Repair: true,
		Protect: []metric.Point{hottest},
	}
	events, err := spec.Generate(g, rng.New(7))
	if err != nil {
		tb.Fatal(err)
	}
	cfg := pitConfig()
	cfg.Churn = ChurnConfig{Events: events, ProbeTimeout: spec.ProbeTimeout,
		GossipInterval: spec.GossipInterval, GossipFanout: spec.GossipFanout, Repair: spec.Repair}
	return g, msgs, periodicSchedule(n, rate), cfg
}

// TestChurnPITRunAllocsPerMessage is TestLiveRunAllocsPerMessage for
// the tables only PIT and churn runs touch. Pending interests come from
// a per-owner slab, who-knows-what is one bitset and the hot lists are
// carved from an arena, which took ftrmark's churn_pit from 6.51
// allocations per lookup to 0.53. The runs here measure 0.49 under one
// owner and 0.85 under two (a window costs the windowed driver a few
// allocations, and this run is short); with an interest per request
// service back on the heap they measure 4.7 and 5.0, with hot lists
// doubling from one entry 1.23 and 1.59 — so the limits, 1.0 and 1.5,
// fail either table that goes back.
func TestChurnPITRunAllocsPerMessage(t *testing.T) {
	const n = 1 << 13
	for _, tc := range []struct {
		shards int
		limit  float64
	}{{1, 1.0}, {2, 1.5}} {
		shards, limit := tc.shards, tc.limit
		g, msgs, sched, cfg := churnPITScenario(t, n, false)
		cfg.Shards = shards
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		out, err := Run(g, msgs, sched, cfg, rng.New(9))
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if out.Suppressed == 0 || out.Crashes == 0 || out.Joins == 0 || out.LinksRebuilt == 0 || out.RumorsConverged == 0 {
			t.Fatalf("shards=%d: suppressed %d, crashes %d, joins %d, links rebuilt %d, rumors converged %d: the guard is vacuous",
				shards, out.Suppressed, out.Crashes, out.Joins, out.LinksRebuilt, out.RumorsConverged)
		}
		allocs := float64(after.Mallocs - before.Mallocs)
		if perMsg := allocs / n; perMsg > limit {
			t.Errorf("%d messages, shards=%d: %.3f allocations per message (%.0f per run), want ≤ %.1f", n, shards, perMsg, allocs, limit)
		}
	}
}

// BenchmarkLiveEngine runs a whole live engine scenario per shard
// count — the end-to-end events/sec number, meaningful on multi-core
// hardware (ftrmark's live_seq and live_sharded workloads take the same
// contrast repeated and stamped, as engine.shard_speedup).
func BenchmarkLiveEngine(b *testing.B) {
	g, msgs, sched := liveEngineScenario(b, 1<<14)
	for _, shards := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			cfg := baseConfig()
			cfg.Mode = ModeLive
			cfg.Shards = shards
			var events int
			var before, after runtime.MemStats
			b.ReportAllocs()
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				out, err := Run(g, msgs, sched, cfg, rng.New(9))
				if err != nil {
					b.Fatal(err)
				}
				events += out.Services
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/s")
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(b.N*len(msgs)), "allocs/msg")
		})
	}
}
