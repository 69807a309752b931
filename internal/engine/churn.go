package engine

import (
	"fmt"
	"math"

	"repro/internal/failure"
	"repro/internal/graph"
	"repro/internal/mathx"
	"repro/internal/metric"
	"repro/internal/rng"
	"repro/internal/telemetry"
)

// This file is the engine's node-dynamics layer: churn events (crashes
// and joins) share the virtual clock with traffic, and the damage is
// detected and repaired by a gossip membership protocol instead of an
// oracle mask.
//
// Mechanics. The schedule's events, failure detections, gossip rounds,
// and stranded-message resumptions live in a churn op queue ordered by
// (time, push order), drained interleaved with the event heap; at equal
// instants churn ops run before message events, so a message arriving
// at t sees the world as of t (the horizon-boundary tests pin this
// tie rule). A crash takes effect between services: the service a node
// already committed to completes (die-after-commit — "dies
// mid-service" loses nothing it had accepted), but every later arrival
// finds the node dead and *strands*: it parks where it is, waits one
// ProbeTimeout (the sender's unanswered probe), and then re-forwards
// from the dead node without a service — the same one-lifetime-then-
// move-on discipline as the PIT path's expiredOnce re-route. A join
// revives the node, redraws its long links from the paper's §5
// power-law distribution (resolved to the nearest alive node), and
// bootstraps its membership view from its alive neighbours.
//
// Membership. Every crash and join becomes a *rumor*. ProbeTimeout
// after the event, the affected node's alive neighbours (link holders
// plus the point-order successors whose skip-hole short links now cross
// the gap — the nodes whose probes went unanswered) learn it; from
// then on, every GossipInterval, each node holding rumors that have not
// reached the whole network pushes them to GossipFanout uniformly
// random alive peers. Each transmission charges one FIFO service at
// the sender, so dissemination competes with traffic for the same
// capacity. A rumor stays hot at its knowers until every alive node
// knows it — a stand-in for ack-driven rumor retirement that keeps the
// charged cost honest and terminates with probability 1 — and the time
// from event to full knowledge is the membership lag the telemetry
// layer reports. Repair is gossip-driven, not oracular: only when a
// node *learns* of a crash does it redraw its long links into the dead
// node.
//
// Sharding. Churn runs scale across cores: the schedule is fully
// materialized before the run, so the windowed driver clips every safe-
// horizon window at the next churn-op instant, drains the shards in
// parallel up to the clip, and applies membership mutations (crashes,
// joins, link redraws, rumor rounds) sequentially at the barrier under
// the same ops-before-messages tie rule — byte-identical to the
// one-owner run at every shard count. Within a window the graph is
// immutable; the only churn artifact a parallel drain produces is a
// strand park, deferred as a doneRec and settled at the barrier in
// global event order so op sequence numbers come out as under one
// owner. The eligibility condition is ProbeTimeout ≥ 1/Capacity (a
// resume must land at or beyond the window horizon); faster probes
// run under one owner (Config.Plan, PlanReasonChurn).
//
// Hot paths. Strand handling, gossip rounds, and link redraws run
// allocation-free in steady state, pinned at 0 allocs/op by
// bench_churn_test.go: detection dedups monitors through reusable
// scratch, nearest-alive resolution is the graph's stamped search
// (graph.NearestAlive), who-knows-what is one node-major bitset whose
// columns retired rumors hand back (churnState.knows), and the hot lists
// are carved from per-run chunks (churnState.arena). A gossip send whose
// receiver already knows everything its sender does — three sends in
// five on ftrmark's churn_pit — is settled by comparing the two rows,
// without walking the sender's hot list.

// ChurnConfig attaches node dynamics to a live engine run. The zero
// value is disabled. A config with knobs but no events attaches the
// machinery without scheduling any dynamics — runs byte-identical to
// the churn-free engine (the differential-test configuration).
type ChurnConfig struct {
	// Events is the churn schedule, sorted by time (package failure's
	// ChurnSpec.Generate produces one). The engine applies each event to
	// the graph at its instant, interleaved with traffic.
	Events []failure.ChurnEvent
	// ProbeTimeout is the failure-detection delay in virtual ticks: how
	// long after a crash the neighbours' probes give up (the rumor is
	// born), and how long a stranded message waits before re-forwarding.
	// Must be positive and finite when churn is enabled.
	ProbeTimeout float64
	// GossipInterval is the cadence of gossip rounds in virtual ticks.
	// Must be positive and finite when churn is enabled.
	GossipInterval float64
	// GossipFanout is how many random alive peers a node pushes its hot
	// rumors to per round. Must be at least 1 when churn is enabled.
	GossipFanout int
	// Repair turns on gossip-driven link repair: a node that learns of a
	// crash redraws its long links into the dead node from the §5
	// power-law distribution, resolved to the nearest alive node.
	Repair bool
}

// Enabled reports whether the run carries churn machinery at all.
func (c ChurnConfig) Enabled() bool {
	return len(c.Events) > 0 || c.ProbeTimeout > 0 || c.GossipInterval > 0 ||
		c.GossipFanout > 0 || c.Repair
}

// validate cross-checks the churn knobs against the mode, mirroring
// the PIT-knob discipline: enabled churn requires the live loop and
// fully resolved gossip knobs.
func (c ChurnConfig) validate(mode Mode) error {
	if !c.Enabled() {
		return nil
	}
	if !mode.Live() {
		return fmt.Errorf("engine: churn requires a live mode (snapshot routes whole paths against a static graph)")
	}
	if !(c.ProbeTimeout > 0) || math.IsInf(c.ProbeTimeout, 0) {
		return fmt.Errorf("engine: churn probe timeout %g must be positive and finite", c.ProbeTimeout)
	}
	if !(c.GossipInterval > 0) || math.IsInf(c.GossipInterval, 0) {
		return fmt.Errorf("engine: churn gossip interval %g must be positive and finite", c.GossipInterval)
	}
	if c.GossipFanout < 1 {
		return fmt.Errorf("engine: churn gossip fanout %d must be at least 1", c.GossipFanout)
	}
	last := math.Inf(-1)
	for i, ev := range c.Events {
		if math.IsNaN(ev.Time) || math.IsInf(ev.Time, 0) || ev.Time < 0 {
			return fmt.Errorf("engine: churn event %d time %g must be finite and non-negative", i, ev.Time)
		}
		if ev.Time < last {
			return fmt.Errorf("engine: churn events out of time order at %d (%g after %g)", i, ev.Time, last)
		}
		last = ev.Time
	}
	return nil
}

// Churn op kinds, in no particular precedence — ordering is purely
// (time, seq), so at one instant ops run in the order they were
// created: schedule events (pushed first, at init) before the
// detections and resumptions they caused.
const (
	churnOpEvent  = iota // apply cfg.Events[ref] to the graph
	churnOpDetect        // rumor ref's monitors notice, ProbeTimeout after the event
	churnOpRound         // one gossip round
	churnOpResume        // stranded message ref re-forwards (idx = its event chain position)
)

// churnOp is one entry of the churn op queue.
type churnOp struct {
	time float64
	seq  int // creation order: the deterministic tie-break
	kind uint8
	ref  int // event index, rumor index, or message — by kind
	idx  int // churnOpResume: the event idx the message's chain continues from
}

func churnOpLess(a, b churnOp) bool {
	if a.time != b.time {
		return a.time < b.time
	}
	return a.seq < b.seq
}

// rumor is one membership fact in flight: "node crashed" or "node
// joined", spreading epidemically until every alive node knows it.
type rumor struct {
	node     metric.Point
	crash    bool
	born     float64
	slot     int32 // its bit in every row of churnState.knows, while not done
	detected bool  // the ProbeTimeout detection has fired
	done     bool  // converged (all alive know) or abandoned (no alive knower)
}

// churnState is the runner's node-dynamics state: the op queue, the
// rumor table, who has heard which pending rumor, and the per-node hot
// lists of rumors still spreading.
type churnState struct {
	cfg     ChurnConfig
	src     *rng.Source // gossip peer draws and repair link redraws (root stream 5)
	ops     *mathx.Heap[churnOp]
	seq     int
	rumors  []rumor
	pending int  // rumors not yet done; rounds self-schedule while > 0
	rounds  bool // a churnOpRound is already queued
	sampler metric.LinkSampler
	// staled: the one-owner driver (step) has applied ops since it
	// last refreshed the graph's neighbour rows.
	staled bool

	// knows is who has heard what, node-major: node p's row is
	// knows[p*words:(p+1)*words], and bit s of it says p has heard the
	// pending rumor whose slot is s. A rumor holds its slot from born
	// until checkDone retires it, which clears the bit in every row and
	// puts the slot on freeSlots; used counts the slots ever handed out,
	// and the rows double in width when all 64·words are taken at once.
	knows     []uint64
	words     int
	used      int
	freeSlots []int32

	// hot is, per node, the rumors it knows and still spreads, in the
	// order it learned them (the order a send teaches them in, hence the
	// rng order of repair redraws). The lists are carved from arena, the
	// unused rest of the run's current chunk; a list that outgrows its
	// capacity moves to a new carving and abandons the old one.
	hot   [][]int32
	arena []int32

	// Reusable scratch keeping the churn hot paths at 0 allocs/op
	// (bench_churn_test.go pins the contract).
	mon  []metric.Point // detect: this call's deduped monitor set
	nbrs []metric.Point // detect, bootstrap: the node's neighbours
}

// hotChunk is how many hot-list entries one arena chunk holds.
const hotChunk = 1 << 13

func newChurnState(g *graph.Graph, cfg ChurnConfig, src *rng.Source) *churnState {
	c := &churnState{
		cfg: cfg,
		src: src,
		ops: mathx.NewHeap(churnOpLess, len(cfg.Events)+16),
		hot: make([][]int32, g.Size()),
	}
	for i, ev := range cfg.Events {
		c.push(churnOp{time: ev.Time, kind: churnOpEvent, ref: i})
	}
	return c
}

func (c *churnState) push(op churnOp) {
	op.seq = c.seq
	c.seq++
	c.ops.Push(op)
}

// nextOpBefore reports whether a churn op is due at or before t — the
// drain loop's interleave test (ops win ties, so an event popped at t
// sees the world as of t).
func (c *churnState) nextOpBefore(t float64, heapEmpty bool) bool {
	if c == nil || c.ops.Len() == 0 {
		return false
	}
	return heapEmpty || c.ops.Peek().time <= t
}

// churnOp dispatches one popped op.
func (r *runner) churnOp(op churnOp) {
	c := r.churn
	switch op.kind {
	case churnOpEvent:
		r.applyChurnEvent(c.cfg.Events[op.ref])
	case churnOpDetect:
		c.detect(r, op.ref, op.time)
	case churnOpRound:
		c.round(r, op.time)
	case churnOpResume:
		r.resumeStranded(op.ref, op.idx, op.time)
	}
}

// applyChurnEvent mutates the graph at the event's instant and births
// the membership rumor. Invalid transitions (crashing a dead node,
// reviving an alive one) are dropped — Generate never emits them, but
// hand-built schedules may.
func (r *runner) applyChurnEvent(ev failure.ChurnEvent) {
	c := r.churn
	switch ev.Kind {
	case failure.ChurnCrash:
		if !r.g.Fail(ev.Node) {
			return
		}
		r.out.Crashes++
		// A dead node neither relays rumors nor counts toward their
		// convergence. Its hot list dies with it; its row of knows does
		// not, so if it rejoins it still counts as a knower of every
		// pending rumor it heard before the crash, and is never taught —
		// so never spreads — those again.
		c.hot[ev.Node] = nil
		if r.tel != nil {
			r.tel.Churn(ev.Time, true)
		}
		c.born(ev, true)
	case failure.ChurnJoin:
		if !r.g.Revive(ev.Node) {
			return
		}
		r.out.Joins++
		if r.tel != nil {
			r.tel.Churn(ev.Time, false)
		}
		// The joiner rebuilds its long links per the §5 construction and
		// pulls the membership state its neighbours hold — the bootstrap
		// exchange every real join protocol starts with, charged to the
		// consulted neighbours' FIFOs.
		c.redrawLinks(r, ev.Node, -1)
		c.bootstrap(r, ev.Node, ev.Time)
		ri := c.born(ev, false)
		// The joiner knows its own arrival from the first instant.
		c.teach(r, ri, ev.Node, ev.Time)
	}
}

// born creates the event's rumor and schedules its detection one
// ProbeTimeout later, returning the rumor's index. Retired rumors'
// slots are recycled, so sustained churn grows the rumor set without
// widening the rows.
func (c *churnState) born(ev failure.ChurnEvent, crash bool) int {
	ri := len(c.rumors)
	c.rumors = append(c.rumors, rumor{
		node:  ev.Node,
		crash: crash,
		born:  ev.Time,
		slot:  c.takeSlot(),
	})
	c.pending++
	c.push(churnOp{time: ev.Time + c.cfg.ProbeTimeout, kind: churnOpDetect, ref: ri})
	return ri
}

// takeSlot hands out a column of knows that is clear in every row: a
// retired rumor's, else the next unused one, doubling the rows' width
// (from nothing, the first time) when there is none.
func (c *churnState) takeSlot() int32 {
	if n := len(c.freeSlots); n > 0 {
		slot := c.freeSlots[n-1]
		c.freeSlots = c.freeSlots[:n-1]
		return slot
	}
	if c.used == 64*c.words {
		words := max(1, 2*c.words)
		wide := make([]uint64, len(c.hot)*words)
		for p := range c.hot {
			copy(wide[p*words:], c.knows[p*c.words:(p+1)*c.words])
		}
		c.knows, c.words = wide, words
	}
	c.used++
	return int32(c.used - 1)
}

// column locates pending rumor ru's bits in knows: node p has heard it
// when col[p*c.words]&mask != 0.
func (c *churnState) column(ru *rumor) (col []uint64, mask uint64) {
	return c.knows[ru.slot>>6:], 1 << (ru.slot & 63)
}

// detect fires ProbeTimeout after the event: the affected node's
// monitors — its alive link holders plus the nearest alive point-order
// successor in each direction, the nodes whose probes went unanswered
// (or who the joiner contacted) — learn the rumor and start spreading
// it. Detection itself charges nothing: the probes are the ambient
// heartbeat traffic every failure detector pays regardless.
func (c *churnState) detect(r *runner, ri int, t float64) {
	ru := &c.rumors[ri]
	if ru.done {
		return
	}
	ru.detected = true
	c.mon = c.mon[:0]
	c.nbrs = r.g.AppendNeighbors(c.nbrs[:0], ru.node, true)
	for _, q := range c.nbrs {
		if r.g.Alive(q) {
			c.addMonitor(q)
		}
	}
	for _, dir := range [2]int{+1, -1} {
		if q, ok := r.g.AliveNeighbor(ru.node, dir); ok {
			c.addMonitor(q)
		}
	}
	for _, q := range c.mon {
		c.teach(r, ri, q, t)
	}
	c.checkDone(r, ri, t)
	c.ensureRound(r, t)
}

// addMonitor dedups one node into the scratch monitor set. Monitor
// sets are a handful of nodes (link holders plus two probe
// successors), so the linear scan beats a map and allocates nothing.
func (c *churnState) addMonitor(q metric.Point) {
	for _, m := range c.mon {
		if m == q {
			return
		}
	}
	c.mon = append(c.mon, q)
}

// teach marks one node as knowing one rumor: it joins the rumor's
// spreaders, and — when repair is on and the rumor is a crash — redraws
// its own long links into the dead node.
func (c *churnState) teach(r *runner, ri int, q metric.Point, t float64) {
	ru := &c.rumors[ri]
	if ru.done {
		return
	}
	col, mask := c.column(ru)
	if col[int(q)*c.words]&mask != 0 {
		return
	}
	col[int(q)*c.words] |= mask
	h := c.hot[q]
	if len(h) == cap(h) {
		// Room for every rumor pending now, not a doubling from one: a
		// wave of crashes reaches every node, so nearly every list it
		// starts ends up holding the whole wave.
		h = append(c.carve(max(2*cap(h), c.pending, 4)), h...)
	}
	c.hot[q] = append(h, int32(ri))
	if ru.crash && c.cfg.Repair {
		c.redrawLinks(r, q, ru.node)
	}
}

// carve cuts an empty list of capacity n off the arena, starting a new
// chunk when the current one cannot hold it.
func (c *churnState) carve(n int) []int32 {
	if len(c.arena) < n {
		c.arena = make([]int32, max(n, hotChunk))
	}
	list := c.arena[:0:n]
	c.arena = c.arena[n:]
	return list
}

// tell is the payload of one transmission p → q: q learns every rumor
// on p's hot list, in the list's order.
func (c *churnState) tell(r *runner, p, q metric.Point, t float64) {
	if !c.news(p, q) {
		return
	}
	for _, ri := range c.hot[p] {
		c.teach(r, int(ri), q, t)
	}
}

// news reports whether node p has heard a pending rumor that node q has
// not. A hot list holds, besides done rumors (which teach ignores), only
// pending rumors its node's row has set, so when news is false every
// teach of a send p → q would be a no-op.
func (c *churnState) news(p, q metric.Point) bool {
	pr, qr := c.knows[int(p)*c.words:][:c.words], c.knows[int(q)*c.words:][:c.words]
	for i, w := range pr {
		if w&^qr[i] != 0 {
			return true
		}
	}
	return false
}

// round is one gossip round: every node holding live rumors pushes
// them to GossipFanout uniformly random alive peers, one FIFO service
// charged at the sender per transmission. Knowledge learned earlier in
// the same round relays immediately (push gossip with immediate
// relay) — deterministic, since nodes run in point order and peers come
// from the churn rng stream.
func (c *churnState) round(r *runner, t float64) {
	c.rounds = false
	if c.pending == 0 {
		return
	}
	sent := 0
	for i := range c.hot {
		if len(c.hot[i]) == 0 {
			continue
		}
		p := metric.Point(i)
		if !r.g.Alive(p) {
			c.hot[i] = nil
			continue
		}
		live := c.hot[i][:0]
		for _, ri := range c.hot[i] {
			if !c.rumors[ri].done {
				live = append(live, ri)
			}
		}
		c.hot[i] = live
		if len(live) == 0 {
			continue
		}
		for k := 0; k < c.cfg.GossipFanout; k++ {
			q, ok := r.g.RandomAlive(c.src)
			if !ok || q == p {
				continue
			}
			r.shards.owner(p).serveAt(r, p, t)
			sent++
			c.tell(r, p, q, t)
		}
	}
	if sent > 0 {
		r.out.GossipSends += sent
		if r.tel != nil {
			r.tel.Gossip(t, sent)
		}
	}
	for ri := range c.rumors {
		c.checkDone(r, ri, t)
	}
	c.ensureRound(r, t)
}

// checkDone resolves a rumor that has finished spreading: converged
// when every alive node knows it (the membership lag is recorded), or
// abandoned when no alive node knows it any more (all its knowers
// crashed; nothing can revive it). A rumor born but not yet detected
// has no knowers by construction — abandonment only applies once its
// detection has fired (a gossip round between birth and detection must
// not orphan it; the staggered-crash repro pins this).
func (c *churnState) checkDone(r *runner, ri int, t float64) {
	ru := &c.rumors[ri]
	if ru.done {
		return
	}
	col, mask := c.column(ru)
	aliveTotal, aliveKnow := 0, 0
	for i := range c.hot {
		if !r.g.Alive(metric.Point(i)) {
			continue
		}
		aliveTotal++
		if col[i*c.words]&mask != 0 {
			aliveKnow++
		}
	}
	switch {
	case aliveTotal > 0 && aliveKnow == aliveTotal:
		ru.done = true
		c.pending--
		r.out.RumorsConverged++
		if lag := t - ru.born; lag > r.out.MembershipLag {
			r.out.MembershipLag = lag
		}
	case ru.detected && aliveKnow == 0:
		ru.done = true
		c.pending--
		r.out.RumorsAbandoned++
	}
	if ru.done {
		// A done rumor's bits are never read again (teach and round both
		// gate on done first): clear its column, dead nodes' rows
		// included, and hand the slot to the next born.
		for i := range c.hot {
			col[i*c.words] &^= mask
		}
		c.freeSlots = append(c.freeSlots, ru.slot)
	}
}

// ensureRound keeps exactly one future gossip round queued while any
// rumor is unresolved; the loop drains to quiescence, so Run returns
// only after membership has converged (or every rumor was orphaned).
func (c *churnState) ensureRound(r *runner, t float64) {
	if c.pending == 0 || c.rounds {
		return
	}
	c.rounds = true
	c.push(churnOp{time: t + c.cfg.GossipInterval, kind: churnOpRound})
}

// bootstrap is the join handshake: the joiner consults up to 2·dim
// alive neighbours (its short-link span) and learns every unresolved
// rumor they collectively hold, one FIFO service charged at each
// consulted neighbour.
func (c *churnState) bootstrap(r *runner, p metric.Point, t float64) {
	limit := 2 * r.g.Space().Dim()
	c.nbrs = r.g.AppendNeighbors(c.nbrs[:0], p, true)
	for _, q := range c.nbrs {
		if limit == 0 {
			break
		}
		if !r.g.Alive(q) {
			continue
		}
		limit--
		r.shards.owner(q).serveAt(r, q, t)
		r.out.GossipSends++
		if r.tel != nil {
			r.tel.Gossip(t, 1)
		}
		c.tell(r, q, p, t)
	}
}

// redrawLinks re-runs the §5 construction for p's long links: every
// slot when dead is negative (a joiner rebuilds them all), otherwise
// only the up slots aimed at the crashed node dead — and never back at
// it, should it have rejoined before the rumor arrived.
func (c *churnState) redrawLinks(r *runner, p, dead metric.Point) {
	for i, l := range r.g.Long(p) {
		if dead >= 0 && (l.To != dead || !l.Up) {
			continue
		}
		if to, ok := c.drawLink(r, p); ok && to != dead {
			if r.g.ReplaceLong(p, i, to) == nil {
				r.out.LinksRebuilt++
			}
		}
	}
}

// drawLink draws one long-link target for p from the paper's harmonic
// distribution (exponent = dimension). The retry discipline is the
// engine's own and is written only here: up to 32 tries, each sample
// resolved through g.NearestAlive, a sample that resolves back to p
// rejected and redrawn. A sampler ok=false means the space offers p no
// other point; it consumes no rng and no retry can change it, so the
// draw gives up at once.
//
// Churn ops and admit run on the sequential side of a window barrier
// (runWindows); that is what lets NearestAlive, here and in
// reattachOrigin, use the graph's single-goroutine search scratch.
func (c *churnState) drawLink(r *runner, p metric.Point) (metric.Point, bool) {
	if c.sampler == nil {
		s, err := r.g.Space().NewLinkSampler(float64(r.g.Space().Dim()))
		if err != nil {
			return 0, false
		}
		c.sampler = s
	}
	for attempt := 0; attempt < 32; attempt++ {
		q, ok := c.sampler.Sample(p, c.src)
		if !ok {
			return 0, false
		}
		if v, ok := r.g.NearestAlive(q); ok && v != p {
			return v, true
		}
	}
	return 0, false
}

// ---------------------------------------------------------------------
// Stranding: in-flight messages at a dying node.
// ---------------------------------------------------------------------

// pushEvent routes an event born outside a drain — a window
// admission's first arrival, a strand's resumption — to the heap of the
// node's owner. Always called from sequential code; the destination is the
// message's current node, which every caller sets before pushing.
func (r *runner) pushEvent(e event) {
	r.shards.owner(r.pos[e.msg]).h.Push(e)
}

// strand parks a message whose arrival found its node dead: no service
// happens (the node cannot serve), and one ProbeTimeout later — the
// sender's probe giving up — the message resumes.
func (r *runner) strand(m, idx int, t float64) {
	r.out.Stranded++
	if r.tel != nil {
		r.tel.Strand(t)
	}
	r.churn.push(churnOp{time: t + r.churn.cfg.ProbeTimeout, kind: churnOpResume, ref: m, idx: idx})
}

// resumeStranded continues a stranded message after its probe window.
// If the node revived in the meantime the arrival simply replays there
// (and is served normally); otherwise the message moves on without a
// service — an answer leg skips the dead relays on its recorded
// reverse path, a request leg re-steps its walker from the dead node,
// exactly the expiredOnce re-route discipline.
func (r *runner) resumeStranded(m, idx int, t float64) {
	if r.doneAt[m] >= 0 {
		return // completed while parked (e.g. a carrier's cascade)
	}
	node := r.pos[m]
	if r.g.Alive(node) {
		r.out.StrandResumed++
		r.pushEvent(event{time: t, msg: m, idx: idx})
		return
	}
	if p := r.pitMsgs; p != nil && p.answering[m] {
		for p.ansAt[m] >= 0 && !r.g.Alive(p.ansPath[m][p.ansAt[m]]) {
			p.ansAt[m]--
		}
		r.out.StrandResumed++
		if p.ansAt[m] < 0 {
			// Every remaining relay (the origin included) is dead: the
			// answer's journey ends here, receipt at the resume instant.
			r.completeLive(m, t, r.answerResult(m))
			return
		}
		r.pos[m] = p.ansPath[m][p.ansAt[m]]
		r.pushEvent(event{time: t, msg: m, idx: idx + 1})
		return
	}
	r.stepWithoutService(m, idx, t)
}

// stepWithoutService advances a request walker parked at a dead node:
// the dead node does no work, so the step is free — the cost was the
// ProbeTimeout already paid. The walker's own policy (greedy,
// backtrack, random re-route) picks the escape, filtered to alive
// candidates as always.
func (r *runner) stepWithoutService(m, idx int, t float64) {
	w := r.walkers[m]
	if r.cong != nil {
		r.cong.now = t
	}
	stepped := w.Step()
	if r.tel != nil {
		r.tel.Hop(m, r.pos[m], t, t, t, 0, telemetry.DecisionReroute)
	}
	if stepped {
		r.out.StrandResumed++
		r.pos[m] = w.At()
		r.pushEvent(event{time: t, msg: m, idx: idx + 1})
		return
	}
	res := w.Result()
	if !res.Delivered {
		r.out.StrandDropped++
		r.completeLive(m, t, res)
		return
	}
	r.out.StrandResumed++
	if r.pitMsgs != nil {
		// Delivered from the strand: the answer leg spawns as usual, its
		// generation service at the target.
		r.spawnAnswer(m, t, res)
		r.pushEvent(event{time: t, msg: m, idx: idx + 1})
		return
	}
	r.completeLive(m, t, res)
}

// errExtinct: churn killed every node; nothing can be injected.
var errExtinct = fmt.Errorf("engine: churn extinguished the network (no alive node to inject at)")

// reattachOrigin finds the entry point for a lookup whose source node
// is dead at injection time: the nearest alive node stands in (the
// client behind the dead portal retries via the next one). Reports
// ok=false only when the whole network is dead. Its caller, admit, runs
// between drains, never inside one (see drawLink).
func (r *runner) reattachOrigin(from metric.Point) (metric.Point, bool) {
	p, ok := r.g.NearestAlive(from)
	if ok {
		r.out.Reattached++
	}
	return p, ok
}
