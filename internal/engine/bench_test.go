package engine

import (
	"fmt"
	"testing"

	"repro/internal/graph"
	"repro/internal/metric"
	"repro/internal/rng"
	"repro/internal/route"
)

// The hot-path contract these benchmarks pin: once slices are warm,
// processing one event — heap pop, queue mechanics, forwarding
// decision, heap push — allocates nothing. Walker creation (one struct,
// one path slab, one rng stream per message) and latency recording are
// per-message costs, amortized over a message's hops; the per-event
// path itself is allocation-free in both modes.

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
// creation in between.
func newGreedyLiveRunner(tb testing.TB, nodes int) *runner {
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
	cfg.Route = route.Options{MaxHops: nodes} // the walk is nodes/2 hops; don't cap it
	msgs := []Message{{From: 0, Key: metric.Point(nodes / 2)}}
	r := newRunner(g, msgs, Schedule{Initial: []Injection{{Msg: 0, Time: 0}}}, cfg, rng.New(1))
	for i := range r.queues {
		// Each ring node is visited once per tour; pre-size the queue
		// slabs the first tour would otherwise allocate lazily.
		r.queues[i].finish = make([]float64, 0, 4)
	}
	return r
}

// TestLiveHotPathAllocs pins the live forwarding path at zero
// allocations per event with the (default) nil telemetry recorder —
// the observability layer's disabled-is-free contract.
func TestLiveHotPathAllocs(t *testing.T) {
	r := newGreedyLiveRunner(t, 8192)
	r.stepLive(1) // the admission: walker creation is a per-message cost
	// 15 calls x 256 events stay inside the 4096-hop walk: every
	// measured event is a pure forwarding step.
	if avg := testing.AllocsPerRun(14, func() { r.stepLive(256) }); avg != 0 {
		t.Errorf("live event processing allocates %.2f per 256-event run, want 0", avg)
	}
	if r.err != nil {
		t.Fatal(r.err)
	}
}

func BenchmarkProcessOneLive(b *testing.B) {
	r := newGreedyLiveRunner(b, 8192)
	b.ReportAllocs()
	b.ResetTimer()
	r.stepLive(b.N) // re-injection restarts the tour when a walk delivers
	b.StopTimer()
	if r.err != nil {
		b.Fatal(r.err)
	}
}

// BenchmarkLiveEngine runs a whole live engine scenario per shard
// count — the end-to-end events/sec number, meaningful on multi-core
// hardware (ftrmark's live_seq and live_sharded workloads take the same
// contrast repeated and stamped, as engine.shard_speedup).
func BenchmarkLiveEngine(b *testing.B) {
	torus, err := metric.NewTorus(64, 2)
	if err != nil {
		b.Fatal(err)
	}
	g, err := graph.BuildIdeal(torus, graph.PaperConfigFor(torus, 12), rng.New(5))
	if err != nil {
		b.Fatal(err)
	}
	msgs := testMessages(b, g, 1<<14, 3)
	for _, shards := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			cfg := baseConfig()
			cfg.Mode = ModeLive
			cfg.Shards = shards
			var events int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				out, err := Run(g, msgs, periodicSchedule(len(msgs), 256), cfg, rng.New(9))
				if err != nil {
					b.Fatal(err)
				}
				events += out.Services
			}
			b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/s")
		})
	}
}
