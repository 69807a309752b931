package engine

import (
	"testing"

	"repro/internal/metric"
	"repro/internal/rng"
)

// The churn hot-path contract these tests pin: once the scratch
// buffers are warm, the recurring churn work — parking and resuming a
// stranded message, a gossip round, a repair link redraw — allocates
// nothing. Per-rumor costs (a column of the knows bitset, a hot list's
// carving from the arena) are paid when a wave of rumors is wider than
// any before it; the steady state is allocation-free, so sustained
// churn cannot out-allocate the traffic it competes with.

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

// newGossipRound builds the gossip-round fixture on the production
// layout (knows rows, arena-carved hot lists): `rumors` pending join
// rumors that every node has heard, hot at the first `senders` nodes.
// With walk set, the senders have also heard one more pending rumor
// that nobody else has and that is on no hot list — the state a knower
// that crashed and rejoined is in — so a send to a non-sender finds news
// in the row test and walks the hot list, every teach a no-op: what
// every send cost before the row test existed. Without it every send is
// settled by the row test. The returned func re-arms what a converged
// round retires, from warm storage, and runs one round.
func newGossipRound(tb testing.TB, rumors, senders int, walk bool) (*runner, func()) {
	tb.Helper()
	r := newChurnBenchRunner(tb, 256)
	c := r.churn
	for ri := 0; ri < rumors; ri++ {
		c.rumors = append(c.rumors, rumor{node: 1, detected: true, slot: c.takeSlot()})
	}
	if walk {
		c.rumors = append(c.rumors, rumor{node: 2, detected: true, slot: c.takeSlot()})
	}
	heard := make([]uint64, c.words) // a non-sender's row, and a sender's
	for ri := 0; ri < rumors; ri++ {
		heard[ri>>6] |= 1 << (ri & 63)
	}
	told := append([]uint64(nil), heard...)
	if walk {
		told[rumors>>6] |= 1 << (rumors & 63)
	}
	for p := 0; p < senders; p++ {
		c.hot[p] = c.carve(rumors)
		for ri := 0; ri < rumors; ri++ {
			c.hot[p] = append(c.hot[p], int32(ri))
		}
	}
	t0 := 1000.0
	return r, func() {
		c.freeSlots = c.freeSlots[:0]
		for ri := 0; ri < rumors; ri++ {
			c.rumors[ri].done = false
		}
		c.pending = len(c.rumors)
		for p := range c.hot {
			if p < senders {
				copy(c.knows[p*c.words:], told)
			} else {
				copy(c.knows[p*c.words:], heard)
			}
		}
		for c.ops.Len() > 0 {
			c.ops.Pop() // the next round, if the last one queued it
		}
		c.round(r, t0)
		t0 += 1000 // far enough that every gossip queue drains and resets
	}
}

// gossipRoundCases are the two steady states of a round of 128 sends
// from 64 senders: every send settled by the row test, and three sends
// in four (184 of a sender's 247 alive peers are non-senders) walking an
// 80-rumor hot list.
var gossipRoundCases = []struct {
	name string
	walk bool
}{{"no-news", false}, {"walk", true}}

// TestGossipRoundHotPathAllocs pins one gossip round at zero
// allocations in steady state: every alive node already knows every
// hot rumor (so a send is settled by the row test, or walks the hot
// list into teach's early return, and no hot list grows), and the
// round's sends land on queues that drain between rounds.
func TestGossipRoundHotPathAllocs(t *testing.T) {
	for _, tc := range gossipRoundCases {
		r, round := newGossipRound(t, 80, 64, tc.walk)
		round() // warm the send queues and the op heap
		if avg := testing.AllocsPerRun(50, round); avg != 0 {
			t.Errorf("%s: gossip round allocates %.2f per round, want 0", tc.name, avg)
		}
		if r.out.GossipSends == 0 {
			t.Fatalf("%s: the rounds sent nothing; the pin is vacuous", tc.name)
		}
		if r.out.RumorsConverged < 80*51 {
			t.Fatalf("%s: %d rumors converged over 51 rounds of 80; the re-arm is broken", tc.name, r.out.RumorsConverged)
		}
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
	for _, tc := range gossipRoundCases {
		b.Run(tc.name, func(b *testing.B) {
			_, round := newGossipRound(b, 80, 64, tc.walk)
			round()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				round()
			}
		})
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
