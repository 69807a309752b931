package engine

import (
	"testing"

	"repro/internal/failure"
	"repro/internal/metric"
	"repro/internal/rng"
)

// refKnown is the who-knows-what layout churnState.knows replaced, kept
// as the reference the bitset is held to (as refBacktrack and refNearest
// were kept for their replacements): one []bool per rumor, a node's
// entry set when it hears the rumor, the bitmap recycled through
// freeKnown when the rumor retires; hot lists of ints grown by append.
type refKnown struct {
	known     [][]bool // per rumor; nil once done
	detected  []bool
	hot       [][]int
	freeKnown [][]bool

	converged, abandoned int
}

func (f *refKnown) born() int {
	var known []bool
	if n := len(f.freeKnown); n > 0 {
		known = f.freeKnown[n-1]
		f.freeKnown = f.freeKnown[:n-1]
		for i := range known {
			known[i] = false
		}
	} else {
		known = make([]bool, len(f.hot))
	}
	f.known = append(f.known, known)
	f.detected = append(f.detected, false)
	return len(f.known) - 1
}

// teach reports whether q learned something.
func (f *refKnown) teach(ri int, q metric.Point) bool {
	if f.known[ri] == nil || f.known[ri][q] {
		return false
	}
	f.known[ri][q] = true
	f.hot[q] = append(f.hot[q], ri)
	return true
}

// tell is one transmission p → q without the no-news test; it reports
// whether any teach of it was not a no-op.
func (f *refKnown) tell(p, q metric.Point) bool {
	taught := false
	for _, ri := range f.hot[p] {
		if f.teach(ri, q) {
			taught = true
		}
	}
	return taught
}

func (f *refKnown) checkDone(ri int, alive func(metric.Point) bool) {
	if f.known[ri] == nil {
		return
	}
	aliveTotal, aliveKnow := 0, 0
	for i, k := range f.known[ri] {
		if !alive(metric.Point(i)) {
			continue
		}
		aliveTotal++
		if k {
			aliveKnow++
		}
	}
	switch {
	case aliveTotal > 0 && aliveKnow == aliveTotal:
		f.converged++
	case f.detected[ri] && aliveKnow == 0:
		f.abandoned++
	default:
		return
	}
	f.freeKnown = append(f.freeKnown, f.known[ri])
	f.known[ri] = nil
}

// pendingHot is a hot list without its done rumors, which is all of it
// that anyone reads (teach ignores the rest, round drops them).
func pendingHot[T int | int32](hot []T, done func(ri int) bool) []int {
	var out []int
	for _, ri := range hot {
		if !done(int(ri)) {
			out = append(out, int(ri))
		}
	}
	return out
}

// knowsOps is how many kinds of op driveKnows decodes.
const knowsOps = 8

// driveKnows runs one op sequence — three bytes an op: kind, then two
// operands — through churnState and refKnown side by side on a 64-node
// ring, and after every op compares every (rumor, node) bit, every done
// flag and convergence count, and every hot list. It returns the state
// for the caller's own coverage assertions.
func driveKnows(t *testing.T, ops []byte) *churnState {
	t.Helper()
	const nodes = 64
	r := newChurnBenchRunner(t, nodes)
	c := r.churn
	ref := &refKnown{hot: make([][]int, nodes)}
	alive := r.g.Alive
	pick := func(b byte) int { // a rumor index, biased to the recent (pending) ones
		if len(c.rumors) == 0 {
			return -1
		}
		return len(c.rumors) - 1 - int(b)%min(len(c.rumors), 200)
	}
	for len(ops) >= 3 {
		kind, a, b := ops[0]%knowsOps, ops[1], ops[2]
		ops = ops[3:]
		p, q := metric.Point(a%nodes), metric.Point(b%nodes)
		switch kind {
		case 0, 1: // born, twice as likely as the rest: pending must pile up
			if c.pending >= 300 {
				continue
			}
			ri := c.born(failure.ChurnEvent{Node: p}, false)
			if ref.born() != ri {
				t.Fatalf("born: rumor %d, reference %d", ri, len(ref.known)-1)
			}
			c.teach(r, ri, q, 0)
			ref.teach(ri, q)
		case 2: // one node hears one rumor
			if ri := pick(a); ri >= 0 {
				c.teach(r, ri, q, 0)
				ref.teach(ri, q)
			}
		case 3: // a transmission, through the no-news test
			news := c.news(p, q)
			c.tell(r, p, q, 0)
			if taught := ref.tell(p, q); taught && !news {
				t.Fatalf("tell %d → %d skipped as no news, but the reference taught something", p, q)
			}
		case 4: // crash: the hot list dies, the row stays
			if r.g.AliveCount() > 1 && r.g.Fail(p) {
				c.hot[p], ref.hot[p] = nil, nil
			}
		case 5:
			r.g.Revive(p)
		case 6: // the rumor reaches everyone alive, or its detection fires
			ri := pick(a)
			if ri < 0 {
				continue
			}
			if b%4 == 0 {
				c.rumors[ri].detected, ref.detected[ri] = true, true
				break
			}
			for i := 0; i < nodes; i++ {
				if alive(metric.Point(i)) {
					c.teach(r, ri, metric.Point(i), 0)
					ref.teach(ri, metric.Point(i))
				}
			}
		case 7: // the end-of-round sweep: retire what is finished
		}
		// Every op ends with the sweep a round ends with, so a rumor
		// retires (and its slot recycles) as soon as it can.
		for ri := range c.rumors {
			c.checkDone(r, ri, 1)
			ref.checkDone(ri, alive)
		}
		compareKnows(t, c, ref, r.out)
	}
	return c
}

// compareKnows checks the bitset against the bitmaps, bit for bit.
func compareKnows(t *testing.T, c *churnState, ref *refKnown, out *Outcome) {
	t.Helper()
	pending := 0
	for ri := range c.rumors {
		ru := &c.rumors[ri]
		if ru.done != (ref.known[ri] == nil) {
			t.Fatalf("rumor %d: done=%v, reference retired=%v", ri, ru.done, ref.known[ri] == nil)
		}
		if ru.done {
			continue
		}
		pending++
		col, mask := c.column(ru)
		for p, want := range ref.known[ri] {
			if got := col[p*c.words]&mask != 0; got != want {
				t.Fatalf("rumor %d (slot %d) node %d: bit %v, reference %v", ri, ru.slot, p, got, want)
			}
		}
	}
	if pending != c.pending || out.RumorsConverged != ref.converged || out.RumorsAbandoned != ref.abandoned {
		t.Fatalf("pending %d (counted %d), converged %d, abandoned %d; reference converged %d, abandoned %d",
			c.pending, pending, out.RumorsConverged, out.RumorsAbandoned, ref.converged, ref.abandoned)
	}
	// No bit outside the pending rumors' slots: a retired column is
	// clear in every row, dead nodes' included.
	taken := make([]uint64, c.words)
	for ri := range c.rumors {
		if ru := &c.rumors[ri]; !ru.done {
			taken[ru.slot>>6] |= 1 << (ru.slot & 63)
		}
	}
	for i, w := range c.knows {
		if stray := w &^ taken[i%c.words]; stray != 0 {
			t.Fatalf("node %d word %d: bits %#x belong to no pending rumor", i/c.words, i%c.words, stray)
		}
	}
	for p := range c.hot {
		got := pendingHot(c.hot[p], func(ri int) bool { return c.rumors[ri].done })
		want := pendingHot(ref.hot[p], func(ri int) bool { return ref.known[ri] == nil })
		if len(got) != len(want) {
			t.Fatalf("node %d: hot list %v, reference %v", p, got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("node %d: hot list %v, reference %v", p, got, want)
			}
		}
	}
}

// knowsPhase appends n seeded random ops whose kinds are drawn from
// kinds (repeats weight the draw).
func knowsPhase(ops []byte, src *rng.Source, n int, kinds ...byte) []byte {
	for i := 0; i < n; i++ {
		ops = append(ops, kinds[src.Intn(len(kinds))], byte(src.Intn(256)), byte(src.Intn(256)))
	}
	return ops
}

// TestChurnKnowsMatchesBitmaps drives the bitset and the bitmaps it
// replaced with seeded random sequences that pile up more than 128
// pending rumors (two row widenings), retire most of them, and pile up
// again on recycled slots, re-teaching nodes whose bits a retirement
// cleared.
func TestChurnKnowsMatchesBitmaps(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		src := rng.New(seed)
		var ops []byte
		ops = knowsPhase(ops, src, 500, 0, 0, 0, 0, 2, 3, 4, 5)          // pile up
		ops = knowsPhase(ops, src, 300, 6, 6, 6, 3, 4, 5, 7)             // retire
		ops = knowsPhase(ops, src, 400, 0, 0, 2, 3, 3, 3, 4, 5, 5, 6, 7) // recycle and re-teach
		c := driveKnows(t, ops)
		if c.words < 4 {
			t.Errorf("seed %d: rows are %d words wide; the sequence never had more than 128 rumors pending", seed, c.words)
		}
		if c.used >= len(c.rumors) {
			t.Errorf("seed %d: %d slots for %d rumors; no slot was recycled", seed, c.used, len(c.rumors))
		}
	}
}

// FuzzChurnKnows is the same comparison over arbitrary op bytes.
func FuzzChurnKnows(f *testing.F) {
	src := rng.New(7)
	f.Add(knowsPhase(nil, src, 60, 0, 2, 3, 4, 5, 6))
	f.Add(knowsPhase(nil, src, 250, 0, 0, 0, 3, 6))
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 3*400 { // every op is followed by a full comparison
			ops = ops[:3*400]
		}
		driveKnows(t, ops)
	})
}
