package engine

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"repro/internal/alloctest"
	"repro/internal/failure"
	"repro/internal/graph"
	"repro/internal/metric"
	"repro/internal/replica"
	"repro/internal/rng"
	"repro/internal/route"
)

// The hot-path contract these benchmarks pin: once slices are warm,
// processing one event — heap pop, queue mechanics, forwarding
// decision, heap push — allocates nothing, under the plain greedy
// policy and under Backtrack alike, and so does snapshot mode's replay
// of a precomputed path on the same loop. What a live message costs beyond
// its events — walker, traced path, rng stream, latency slot — comes
// out of per-run slabs (runner.arena, runner.srcs), so a whole live run
// stays under half an allocation per message
// (TestLiveRunAllocsPerMessage), and so does a whole snapshot run
// (TestSnapshotRunAllocsPerMessage).

// newCyclicSnapshotRunner builds a snapshot-mode runner whose single
// message replays a pathLen-hop tour of the ring over and over — pure
// event-loop mechanics, no routing.
func newCyclicSnapshotRunner(tb testing.TB, nodes, pathLen int) *runner {
	tb.Helper()
	path := make([]metric.Point, pathLen)
	for i := range path {
		path[i] = metric.Point(i % nodes)
	}
	return newPathRunner(tb, nodes, 1, [][]metric.Point{path}, nil, Schedule{})
}

// stepLoop drives k steps of the one-owner driver — the one set of
// handlers, popped in global event order — re-injecting the message
// when its walk or its path ends (that step is the admission, walker
// creation included in live mode; every other step is one event).
func (r *runner) stepLoop(k int) {
	for i := 0; i < k; i++ {
		if !r.step() {
			r.pend.Push(Injection{Msg: 0, Time: r.shards.shards[0].makespan + 1})
		}
	}
}

// TestSnapshotHotPathAllocs pins snapshot mode's replay on the one loop
// at zero allocations per event — including the telemetry hook
// branches, which a default config leaves nil: disabled telemetry must
// stay free.
func TestSnapshotHotPathAllocs(t *testing.T) {
	r := newCyclicSnapshotRunner(t, 64, 4096)
	r.stepLoop(4096) // warm the heaps, every queue, and the counters
	if avg := testing.AllocsPerRun(50, func() { r.stepLoop(256) }); avg != 0 {
		t.Errorf("snapshot event processing allocates %.2f per 256-event run, want 0", avg)
	}
	if r.out.Injected < 2 {
		t.Fatalf("the tour was re-admitted %d times: the pin never crossed an admission", r.out.Injected)
	}
}

func BenchmarkProcessOneSnapshot(b *testing.B) {
	r := newCyclicSnapshotRunner(b, 64, 4096)
	r.stepLoop(4096)
	b.ReportAllocs()
	b.ResetTimer()
	r.stepLoop(b.N)
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
	return new(runner).reset(g, msgs, Schedule{Initial: []Injection{{Msg: 0, Time: 0}}}, cfg, rng.New(1))
}

// TestLiveHotPathAllocs pins the live forwarding path at zero
// allocations per event with the (default) nil telemetry recorder —
// the observability layer's disabled-is-free contract — under the
// plain greedy policy and under Backtrack, the one every engine
// workload routes with.
func TestLiveHotPathAllocs(t *testing.T) {
	for _, policy := range []route.DeadEndPolicy{route.Terminate, route.Backtrack} {
		r := newGreedyLiveRunner(t, 8192, policy)
		r.stepLoop(1) // the admission: walker creation is a per-message cost
		// 15 calls x 256 events stay inside the 4096-hop walk: every
		// measured event is a pure forwarding step.
		if avg := testing.AllocsPerRun(14, func() { r.stepLoop(256) }); avg != 0 {
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
			r.stepLoop(b.N) // re-injection restarts the tour when a walk delivers
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
// The walker and stream slabs, the tried stack and queues that keep
// only their busy period took ftrmark's live_seq from 12.25 allocations
// per message to 0.0135 (the bar was 1.5); the runs here measure
// 0.013–0.016 under one owner and 0.042–0.064 under two (0.016–0.067
// while queues grew rings past four slots), and the limit is 0.1, about
// half again the highest, so that a single allocation per message
// creeping back (a per-walker buffer, a per-message Source, a closure
// in admit, a queue that grows) fails at either size, under either
// driver.
func TestLiveRunAllocsPerMessage(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
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
			if perMsg := avg / float64(n); perMsg > 0.1 {
				t.Errorf("%d messages, shards=%d: %.3f allocations per message (%.0f per run), want ≤ 0.1",
					n, shards, perMsg, avg)
			}
		}
	}
}

// TestSnapshotRunAllocsPerMessage is TestLiveRunAllocsPerMessage for
// snapshot mode, under the configuration load.Sweep runs at every rung
// of ftrmark's knee_sweep: a flood on a torus with 30 % of its nodes
// failed, the cumulative congestion penalty, 4-way replication with
// cache-on-path (so the hot key routes to a 12-member set) and
// Backtrack. Walkers come from one arena per router, streams from the
// run's slab, and a hot key's combined set from the placement's memo,
// which took knee_sweep from 7.38 allocations per lookup to 0.20. The
// runs here measure 0.03 under one worker and 0.16 under two (a batch
// of 32 spawns its stepping goroutines) against 7.2 and 7.3 before; a
// lookup that pays for a walker chunk of its own again, or any one
// allocation per message, fails the 0.5 limit at either worker count.
func TestSnapshotRunAllocsPerMessage(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	const n = 1 << 12
	torus, err := metric.NewTorus(32, 2)
	if err != nil {
		t.Fatal(err)
	}
	g, err := graph.BuildIdeal(torus, graph.PaperConfigFor(torus, 10), rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := failure.FailNodesFraction(g, 0.3, rng.New(6)); err != nil {
		t.Fatal(err)
	}
	src := rng.New(3)
	victim, _ := g.RandomAlive(src)
	msgs := make([]Message, n)
	for i := range msgs {
		from := victim
		for from == victim {
			from, _ = g.RandomAlive(src)
		}
		msgs[i] = Message{From: from, Key: victim}
	}
	sched := periodicSchedule(n, 16)
	for _, workers := range []int{1, 2} {
		cfg := baseConfig()
		cfg.Workers = workers
		cfg.Penalty = 4
		avg := testing.AllocsPerRun(2, func() {
			p, err := replica.NewPlacement(g.Space(), replica.Options{K: 4, CacheThreshold: 16, CacheCopies: 8}, 77)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Placement = p
			if _, err := Run(g, msgs, sched, cfg, rng.New(9)); err != nil {
				t.Fatal(err)
			}
			if p.CachedCopies() == 0 {
				t.Fatal("the hot key earned no cached copies: the guard is vacuous")
			}
		})
		if perMsg := avg / n; perMsg > 0.5 {
			t.Errorf("workers=%d: %.3f allocations per message (%.0f per run), want ≤ 0.5", workers, perMsg, avg)
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
// allocations per lookup to 0.53; node queues that keep only their busy
// period (no ring to grow under the Zipf hot spots) took it to 0.155,
// and windows and barriers that allocate nothing, in-link lists with a
// spare slot for a repair redraw and one stack slab per walker chunk to
// 0.061. The runs here measure 0.226 under one owner and 0.236 under
// two. A goroutine closure and WaitGroup per window, sort.Slice at every
// barrier, an in-link list moved per redraw and two walker slabs for one
// made them 0.250 and 0.496, growing rings 0.49 and 0.74; with an
// interest per request service back on the heap they measure 4.7 and
// 5.0, with hot lists doubling from one entry 1.23 and 1.59. The limits,
// 0.31 and 0.32, sit about 37 % above the measured values, so either
// table going back fails them, and so does a queue, a window or a redraw
// that allocates again.
func TestChurnPITRunAllocsPerMessage(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	const n = 1 << 13
	for _, tc := range []struct {
		shards int
		limit  float64
	}{{1, 0.31}, {2, 0.32}} {
		shards, limit := tc.shards, tc.limit
		g, msgs, sched, cfg := churnPITScenario(t, n, false)
		cfg.Shards = shards
		var out *Outcome
		var err error
		mallocs, _ := alloctest.Measure(func() { out, err = Run(g, msgs, sched, cfg, rng.New(9)) })
		if err != nil {
			t.Fatal(err)
		}
		if out.Suppressed == 0 || out.Crashes == 0 || out.Joins == 0 || out.LinksRebuilt == 0 || out.RumorsConverged == 0 {
			t.Fatalf("shards=%d: suppressed %d, crashes %d, joins %d, links rebuilt %d, rumors converged %d: the guard is vacuous",
				shards, out.Suppressed, out.Crashes, out.Joins, out.LinksRebuilt, out.RumorsConverged)
		}
		allocs := float64(mallocs)
		if perMsg := allocs / n; perMsg > limit {
			t.Errorf("%d messages, shards=%d: %.3f allocations per message (%.0f per run), want ≤ %.2f", n, shards, perMsg, allocs, limit)
		}
	}
}

// TestShardWindowAllocs pins a two-owner window at no allocation:
// drainWindow starts each busy owner's window closure, built once per
// run, on the set's one WaitGroup, and barrier merges the hand-offs and
// sorts the deferred completions with slices.SortFunc. The run is the
// live scenario at 8192 lookups, injected over 32 ticks, on a Runner
// whose first run left its walker arena at full size (so what a
// completion's release costs is the arena's business, not the
// window's). The windows of the first 16 ticks grow the run's own
// buffers to their steady size, and every window of the next 16, each
// with both owners busy, completions to sort and hand-offs to merge,
// must allocate nothing in drainWindow and barrier. A goroutine closure
// and WaitGroup per window and sort.Slice's reflect swapper made them
// 6 allocations a window here (1 404 and 1 320 a churn_pit run). Under
// the race detector the windows still run, both owners draining at
// once, but nothing is counted.
func TestShardWindowAllocs(t *testing.T) {
	g, msgs, sched := liveEngineScenario(t, 8192)
	cfg := baseConfig()
	cfg.Mode = ModeLive
	cfg.Shards = 2
	var x Runner
	if _, err := x.Run(g, msgs, sched, cfg, rng.New(9)); err != nil {
		t.Fatal(err)
	}
	r := x.r.reset(g, msgs, sched, cfg, rng.New(9))
	if r.err != nil || r.out.Plan != PlanLiveSharded {
		t.Fatalf("plan %v (%v), want the windowed driver", r.out.Plan, r.err)
	}
	s, measured := r.shards, 0
	for {
		w, ok := s.nextTime(r)
		if !ok || r.pend.Len() == 0 {
			break
		}
		horizon := w + r.serviceTime
		for r.pend.Len() > 0 && r.pend.Peek().Time < horizon {
			if a, ok := r.admit(r.pend.Pop()); ok {
				r.pushEvent(a)
			}
		}
		recs, handoffs := 0, 0
		mallocs, _ := alloctest.Measure(func() {
			s.drainWindow(r, horizon)
			for _, sh := range s.shards {
				recs += len(sh.done)
				for _, box := range sh.outbox {
					handoffs += len(box)
				}
			}
			s.barrier(r)
		})
		if r.err != nil {
			t.Fatal(r.err)
		}
		if w < 16 {
			continue
		}
		if len(s.active) != 2 || recs == 0 || handoffs == 0 {
			t.Fatalf("window at t=%g: %d owners busy, %d completions, %d hand-offs: the pin is vacuous", w, len(s.active), recs, handoffs)
		}
		if mallocs != 0 && !raceEnabled {
			t.Errorf("window at t=%g: drainWindow and barrier allocated %d times, want 0", w, mallocs)
		}
		measured++
	}
	if measured != 16 {
		t.Fatalf("%d windows measured, want 16", measured)
	}
}

// BenchmarkLiveEngine runs a whole live engine scenario per shard
// count — the end-to-end events/sec number, meaningful on multi-core
// hardware (ftrmark's live_seq and live_sharded workloads take the same
// contrast repeated and stamped, as engine.shard_speedup), beside the
// heap allocations and bytes one message costs the whole run.
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
			per := float64(b.N * len(msgs))
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/per, "allocs/msg")
			b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/per, "B/msg")
		})
	}
}
