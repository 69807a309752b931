package engine

import (
	"testing"

	"repro/internal/metric"
	"repro/internal/rng"
)

// The churn hot-path contract these tests pin: once the scratch
// buffers are warm, the recurring churn work — parking and resuming a
// stranded message, a gossip round, a repair link redraw — allocates
// nothing. Per-rumor costs (the known bitmap, a node's first hot-list
// entry) are paid at birth and recycled at retirement; the steady
// state is allocation-free, so sustained churn cannot out-allocate the
// traffic it competes with.

// newChurnBenchRunner builds a live runner with the churn machinery
// attached (knobs, no scheduled events) on a ring with a contiguous
// dead stretch, so strand parks, nearest-alive searches, and link
// redraws all have real work to do.
func newChurnBenchRunner(tb testing.TB, nodes int) *runner {
	tb.Helper()
	g := testGraph(tb, nodes, 4, 23, 0)
	cfg := baseConfig()
	cfg.Mode = ModeLive
	cfg.Churn = churnKnobs()
	r := newRunner(g, []Message{{From: 0, Key: metric.Point(nodes / 2)}}, Schedule{}, cfg, rng.New(1))
	// A dead arc a quarter of the way around: graph.NearestAlive must
	// search across it, and node nodes/4 is a dead park spot for strands.
	for p := nodes / 4; p < nodes/4+8; p++ {
		g.Fail(metric.Point(p))
	}
	return r
}

// TestStrandHotPathAllocs pins the strand park/resume cycle at zero
// allocations per op once the op queue and event heap are warm: a
// message parks at its node, waits out the probe window, and resumes —
// the full churnOpResume round trip, heap push to heap pop.
func TestStrandHotPathAllocs(t *testing.T) {
	r := newChurnBenchRunner(t, 256)
	c := r.churn
	r.doneAt[0] = -1
	t0 := 0.0
	cycle := func() {
		r.pos[0] = 1 // alive: the resume replays the arrival there
		r.strand(0, 3, t0)
		op := c.ops.Pop()
		r.churnOp(op)              // resumeStranded: pushes the replay event
		r.shards.shards[0].h.Pop() // discard it; the loop mechanics are pinned elsewhere
		t0 += 1
	}
	cycle() // warm the op queue and event heap
	if avg := testing.AllocsPerRun(50, func() { cycle() }); avg != 0 {
		t.Errorf("strand park/resume allocates %.2f per cycle, want 0", avg)
	}
	if r.err != nil {
		t.Fatal(r.err)
	}
}

// TestGossipRoundHotPathAllocs pins one gossip round at zero
// allocations in steady state: every alive node already knows the
// rumor (so teach hits the known-bitmap early return instead of
// growing hot lists), and the round's sends land on queues that drain
// between rounds.
func TestGossipRoundHotPathAllocs(t *testing.T) {
	r := newChurnBenchRunner(t, 256)
	c := r.churn
	known := make([]bool, r.g.Size())
	for i := range known {
		known[i] = true
	}
	c.rumors = append(c.rumors, rumor{node: 1, crash: false, born: 0, detected: true, known: known})
	c.hot[1] = append(c.hot[1], 0)
	c.hot[2] = append(c.hot[2], 0)
	t0 := 1000.0
	round := func() {
		// Re-arm the converged rumor; the resets recycle warm storage.
		ru := &c.rumors[0]
		ru.done = false
		ru.known = known
		c.pending = 1
		c.freeKnown = c.freeKnown[:0]
		// Pop the round ensureRound queued (or push one the first time).
		if c.ops.Len() == 0 {
			c.push(churnOp{time: t0, kind: churnOpRound})
		}
		op := c.ops.Pop()
		c.round(r, op.time)
		t0 += 1000 // far enough that every gossip queue drains and resets
	}
	round() // warm the send queues and the op heap
	if avg := testing.AllocsPerRun(50, func() { round() }); avg != 0 {
		t.Errorf("gossip round allocates %.2f per round, want 0", avg)
	}
	if r.out.GossipSends == 0 {
		t.Fatal("the benchmark rounds sent nothing; the pin is vacuous")
	}
}

// TestLinkRedrawHotPathAllocs pins the repair draw — a §5 power-law
// sample resolved through graph.NearestAlive — at zero allocations once
// the sampler and the graph's search scratch are warm.
func TestLinkRedrawHotPathAllocs(t *testing.T) {
	r := newChurnBenchRunner(t, 256)
	c := r.churn
	draws := 0
	draw := func() {
		if _, ok := c.drawLink(r, metric.Point(3)); ok {
			draws++
		}
	}
	draw() // warm the sampler and the graph's search scratch
	if avg := testing.AllocsPerRun(50, func() { draw() }); avg != 0 {
		t.Errorf("link redraw allocates %.2f per draw, want 0", avg)
	}
	if draws == 0 {
		t.Fatal("no draw resolved; the pin is vacuous")
	}
}

func BenchmarkGossipRound(b *testing.B) {
	r := newChurnBenchRunner(b, 256)
	c := r.churn
	known := make([]bool, r.g.Size())
	for i := range known {
		known[i] = true
	}
	c.rumors = append(c.rumors, rumor{node: 1, detected: true, known: known})
	c.hot[1] = append(c.hot[1], 0)
	t0 := 1000.0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ru := &c.rumors[0]
		ru.done = false
		ru.known = known
		c.pending = 1
		c.freeKnown = c.freeKnown[:0]
		if c.ops.Len() > 0 {
			c.ops.Pop()
		}
		c.round(r, t0)
		t0 += 1000
	}
}

func BenchmarkLinkRedraw(b *testing.B) {
	r := newChurnBenchRunner(b, 256)
	c := r.churn
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.drawLink(r, metric.Point(3))
	}
}
