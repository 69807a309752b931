package engine

import (
	"sync"
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/mathx"
	"repro/internal/metric"
	"repro/internal/rng"
	"repro/internal/route"
	"repro/internal/telemetry"
)

// aggKey identifies a coalescing point: one key's pending service at
// one node.
type aggKey struct {
	node metric.Point
	key  metric.Point
}

// aggEntry remembers the message currently carrying a key through a
// node and when its service there completes; arrivals for the same key
// before that instant ride along.
type aggEntry struct {
	leader int
	finish float64
}

// runner is one engine run's mutable state: what every mode shares,
// the per-message live state, and one nil-able struct per discipline
// (snapshot, congestion feedback, aggregation, PIT, churn) so a run
// carries only the state its configuration uses.
type runner struct {
	g     *graph.Graph
	msgs  []Message
	sched Schedule
	cfg   Config
	root  *rng.Source
	out   *Outcome
	err   error

	serviceTime float64
	queues      []nodeQueue
	inject      []float64

	// caching/decay shorthands resolved from cfg.Placement.
	caching  bool
	decaying bool

	// tel is the attached telemetry recorder (nil = disabled; every
	// hook site checks). seenPromos/seenEvicts are the placement churn
	// counters as of the last poll, so cache events report as deltas
	// attributed to the virtual time of the triggering engine event.
	tel        *telemetry.Recorder
	seenPromos int
	seenEvicts int

	// snap is the snapshot pipeline's state (nil in the live modes).
	snap *snapshotState

	// One walker per message — carved, like its rng stream, from per-run
	// slabs (arena, srcs), because a run holds nearly every lookup in
	// flight at once and keeps every path. (Snapshot mode carves too, a
	// batch at a time: arena is its plain router's, and walkers stays
	// nil.) Live modes: its current node, and its completion time (-1
	// while in flight); the injections not yet admitted, ordered by
	// (time, msg); how many were admitted so far (the live decay
	// cadence); and the owners of the node set, whose heaps hold every
	// pending event (shard.go).
	arena    *route.Arena
	srcs     []rng.Source
	walkers  []*route.Walker
	pos      []metric.Point
	doneAt   []float64
	pend     *mathx.Heap[Injection]
	injected int
	shards   *shardSet

	// Per-discipline live state, nil unless the configuration has it:
	// the congestion signal (Penalty/DepthPenalty), the per-message
	// halves of aggregation and PIT (the per-node halves live on the
	// owning shard), and node dynamics (churn.go).
	cong    *congestion
	aggMsgs *aggMsgState
	pitMsgs *pitMsgState
	churn   *churnState
}

// snapshotState is the route-then-replay pipeline's state: its event
// heap, the forwarder paths of routed messages, the routed frontier,
// each message's schedule entries (sched.Initial bucketed by Msg,
// preserving order: message m's are initial[initialAt[m]:initialAt[m+1]]),
// and closed-loop injections unlocked before their message was routed
// (admitted when its batch routes).
type snapshotState struct {
	h          *mathx.Heap[event]
	paths      [][]metric.Point
	delivered  []bool
	routed     int
	initial    []Injection
	initialAt  []int
	pendingAt  []float64
	hasPending []bool

	// The congestion signal a batch routes against, frozen between
	// batches and read by the congested router's closure: services
	// charged per node by the batches routed so far, their scale, and
	// the queue depths at the batch's first injection (nil without a
	// DepthPenalty).
	charged   []int
	loadScale float64
	depth     []int

	// fullyPrimed reports that the schedule fixed every message's
	// injection up front, in message order, at nondecreasing times —
	// the open-loop shape under which depth probes can read the live
	// loop frontier instead of replaying the prefix.
	fullyPrimed bool
}

// congestion is the live congestion signal's state: services charged
// so far, per node and in total, and the instant of the forwarding
// decision being made (read by the closure newRunner installs).
// Maintained only when Penalty or DepthPenalty is positive — such runs
// have one owner (Config.Plan), so nothing here is shared.
type congestion struct {
	charged []int
	total   int
	now     float64
}

// aggMsgState is live aggregation's per-message state: the lookups
// riding on each carrier, and who merged.
type aggMsgState struct {
	followers [][]int
	merged    []bool
}

// pitMsgState is ModeLivePIT's per-message state (pit.go). parked is
// set while a message waits on another's interest — at most once in its
// life, read and written only by the owner of the node it waits at —
// and waitIdx remembers the event idx it was suppressed at, so its
// release or re-forward continues the idx sequence past every event
// already pushed. expiredOnce flips when a message's wait expires: a
// lookup that already sat out one interest lifetime is never suppressed
// again, so chained strandings cannot stack timeouts — the protocol's
// worst lawful wait is one lifetime per lookup. answering flips when a
// message starts its answer leg; ansPath/ansAt/ansTarget hold the
// reverse path, the index of the next node to service, and the delivery
// target the answer reports.
type pitMsgState struct {
	parked      []bool
	waitIdx     []int
	expiredOnce []bool
	answering   []bool
	ansAt       []int
	ansPath     [][]metric.Point
	ansTarget   []metric.Point
}

func newRunner(g *graph.Graph, msgs []Message, sched Schedule, cfg Config, root *rng.Source) *runner {
	n := len(msgs)
	r := &runner{
		g:           g,
		msgs:        msgs,
		sched:       sched,
		cfg:         cfg,
		root:        root,
		tel:         cfg.Telemetry,
		serviceTime: 1 / cfg.Capacity,
		queues:      make([]nodeQueue, g.Size()),
		inject:      make([]float64, n),
		out: &Outcome{
			Results:   make([]route.Result, n),
			Loads:     make([]int, g.Size()),
			Latencies: make([]float64, 0, n),
		},
	}
	// Every queue starts on its own queueSlots of one slab; the
	// three-index carve keeps a queue that outgrows them off its
	// neighbour's.
	slab := make([]float64, queueSlots*len(r.queues))
	for i := range r.queues {
		r.queues[i].finish = slab[queueSlots*i : queueSlots*(i+1) : queueSlots*(i+1)]
	}
	r.out.Plan, r.out.PlanReason = cfg.Plan(sched)
	if cfg.Placement != nil {
		r.caching = cfg.Placement.Caching()
		r.decaying = cfg.Placement.Decaying()
	}
	r.srcs = make([]rng.Source, n)
	if !cfg.Mode.Live() {
		s := &snapshotState{
			h:          newEventHeap(n),
			paths:      make([][]metric.Point, n),
			delivered:  make([]bool, n),
			pendingAt:  make([]float64, n),
			hasPending: make([]bool, n),
		}
		s.initial, s.initialAt = bucketByMsg(sched.Initial, n)
		s.fullyPrimed = fullyPrimed(sched.Initial, n)
		r.snap = s
		return r
	}
	if cfg.Churn.Enabled() {
		// Stream 5 of the run's root is the churn layer's randomness
		// (gossip peer draws, repair link redraws); streams 16+i stay the
		// per-message routing contract, so a schedule with zero events
		// consumes nothing and perturbs nothing.
		r.churn = newChurnState(g, cfg.Churn, root.Derive(5))
	}
	r.walkers = make([]*route.Walker, n)
	r.pos = make([]metric.Point, n)
	r.doneAt = make([]float64, n)
	for i := range r.doneAt {
		r.doneAt[i] = -1
	}
	if cfg.Mode.Aggregate() {
		r.aggMsgs = &aggMsgState{followers: make([][]int, n), merged: make([]bool, n)}
	}
	if cfg.Mode.PIT() {
		r.pitMsgs = &pitMsgState{
			parked:      make([]bool, n),
			waitIdx:     make([]int, n),
			expiredOnce: make([]bool, n),
			answering:   make([]bool, n),
			ansAt:       make([]int, n),
			ansPath:     make([][]metric.Point, n),
			ansTarget:   make([]metric.Point, n),
		}
	}
	ropt := cfg.Route
	ropt.TracePath = true
	if cfg.Penalty > 0 || cfg.DepthPenalty > 0 {
		// The live congestion signal: charged load relative to the
		// current mean live-node load, plus the candidate's queue depth
		// at the instant of the decision. Reading the decision instant and
		// the queues directly is what "live" means — no snapshot, no
		// staleness.
		c := &congestion{charged: make([]int, g.Size())}
		r.cong = c
		ropt.Congestion = func(q metric.Point) float64 {
			s := 0.0
			if cfg.Penalty > 0 && c.total > 0 {
				s += cfg.Penalty * float64(g.AliveCount()) * float64(c.charged[q]) / float64(c.total)
			}
			if cfg.DepthPenalty > 0 {
				s += cfg.DepthPenalty * float64(r.queues[q].depthAt(c.now))
			}
			return s
		}
		ropt.CongestionWeight = 1
	}
	r.arena = route.New(g, ropt).NewArena()
	r.pend = mathx.NewHeap(injectionLess, len(sched.Initial))
	for _, inj := range sched.Initial {
		r.pend.Push(inj)
	}
	owners := 1
	if r.out.Plan == PlanLiveSharded {
		owners = cfg.Shards
	}
	r.shards = newShardSet(r, owners)
	return r
}

// bucketByMsg sorts the injections of messages [0, n) stably by message
// — one counting pass, one placing pass: message m's entries, in
// schedule order, are out[at[m]:at[m+1]].
func bucketByMsg(initial []Injection, n int) (out []Injection, at []int) {
	at = make([]int, n+2)
	for _, inj := range initial {
		if inj.Msg >= 0 && inj.Msg < n {
			at[inj.Msg+2]++
		}
	}
	for m := 2; m < len(at); m++ {
		at[m] += at[m-1]
	}
	out = make([]Injection, at[n+1])
	for _, inj := range initial {
		if inj.Msg >= 0 && inj.Msg < n {
			out[at[inj.Msg+1]] = inj
			at[inj.Msg+1]++
		}
	}
	return out, at[:n+1]
}

// fullyPrimed reports whether initial fixes message i's injection at
// position i with nondecreasing times — true for the open-loop arrival
// models, whose whole schedule is known before the loop starts.
func fullyPrimed(initial []Injection, n int) bool {
	if len(initial) != n {
		return false
	}
	for i, inj := range initial {
		if inj.Msg != i {
			return false
		}
		if i > 0 && inj.Time < initial[i-1].Time {
			return false
		}
	}
	return true
}

// forwarders returns the nodes whose FIFO queues a search occupies: the
// hop u→v is charged to u, the node doing the routing work. A delivered
// message therefore charges every visited node except its destination
// (which consumes the message; its application-level work is not
// routing load), while a failed search charges everything it touched —
// the last node too received the message and hunted for a next hop.
func forwarders(res route.Result) []metric.Point {
	if res.Delivered && len(res.Path) > 0 {
		return res.Path[:len(res.Path)-1]
	}
	return res.Path
}

// servedKind classifies a completion for the flight recorder: how the
// lookup was answered. The cache test reads the placement's current
// cached set for the key, which is exact for live mode (completions
// and churn interleave in event order) and a completion-time
// approximation for snapshot mode.
func (r *runner) servedKind(msg int, res route.Result) telemetry.Served {
	if r.aggMsgs != nil && r.aggMsgs.merged[msg] {
		return telemetry.ServedAggregated
	}
	if !res.Delivered {
		return telemetry.ServedNone
	}
	if r.pitMsgs != nil && !r.walkers[msg].Done() {
		// Delivered but its own walk never reached a target: the lookup
		// was answered from a PIT point by a returning answer's multicast.
		return telemetry.ServedPIT
	}
	key := r.msgs[msg].Key
	if res.Target == key {
		return telemetry.ServedPrimary
	}
	if r.cfg.Placement != nil {
		for _, c := range r.cfg.Placement.CachedFor(key) {
			if c == res.Target {
				return telemetry.ServedCache
			}
		}
	}
	return telemetry.ServedReplica
}

// hopDecision maps the walker's last step onto the flight recorder's
// decision label.
func hopDecision(w *route.Walker) telemetry.Decision {
	switch w.LastStep() {
	case route.StepBacktrack:
		return telemetry.DecisionBacktrack
	case route.StepReroute:
		return telemetry.DecisionReroute
	default:
		return telemetry.DecisionGreedy
	}
}

// cacheDelta polls the placement's cumulative churn counters and
// reports what changed since the last poll, attributed to virtual
// time t. Called (with tel enabled) right after every engine event
// that can move them: Observe on delivery and Decay on its cadence.
func (r *runner) cacheDelta(t float64) {
	p, e := r.cfg.Placement.CacheEvents()
	r.tel.Cache(t, p-r.seenPromos, e-r.seenEvicts)
	r.seenPromos, r.seenEvicts = p, e
}

// ---------------------------------------------------------------------
// Snapshot mode: the classic route-then-replay pipeline, folded into
// the shared event loop. Routing happens in congestion-snapshot
// batches; each batch's injections are admitted as it routes, and the
// loop is advanced only as far as the depth probes need, so the final
// event sequence is identical to replaying everything at once.
// ---------------------------------------------------------------------

func (r *runner) runSnapshot() {
	cfg, s := r.cfg, r.snap
	aware := cfg.Penalty > 0 || cfg.DepthPenalty > 0
	ropt := cfg.Route
	ropt.TracePath = true
	s.charged = make([]int, r.g.Size())
	var congested *route.Arena
	if aware {
		// The congestion feedback owns these fields (the documented
		// contract): drop any caller-supplied signal so the first,
		// zero-load batch routes hop-optimally, and route later batches
		// on a second router whose signal is what the batch froze in s.
		ropt.Congestion = nil
		ropt.CongestionWeight = 0
		copt := ropt
		copt.Congestion = func(q metric.Point) float64 {
			c := float64(s.charged[q]) * s.loadScale
			if s.depth != nil {
				c += cfg.DepthPenalty * float64(s.depth[q])
			}
			return c
		}
		copt.CongestionWeight = 1
		congested = route.New(r.g, copt).NewArena()
	}
	r.arena = route.New(r.g, ropt).NewArena()
	batch := len(r.msgs)
	if aware || r.caching {
		batch = min(cfg.BatchSize, batch)
	}
	// One batch's walkers at a time: a finished batch's chunk is garbage
	// once its paths are copied out (the paths pin only the point slab).
	ws := make([]*route.Walker, batch)
	for start := 0; start < len(r.msgs); start += batch {
		end := start + batch
		if end > len(r.msgs) {
			end = len(r.msgs)
		}
		if r.decaying && start > 0 {
			// Snapshot boundary: age cache-on-path popularity before the
			// next batch consults the placement.
			cfg.Placement.Decay()
			if r.tel != nil {
				// Snapshot churn has no single event instant; attribute it
				// to the latest admitted injection — the batch boundary's
				// virtual "now".
				r.cacheDelta(r.out.LastInject)
			}
		}
		arena := r.arena
		if aware && start > 0 {
			// The cumulative congestion signal is the node's charged
			// load relative to the mean live-node load of the snapshot —
			// dimensionless, so the detour pressure stays constant as
			// traffic accumulates instead of drowning the distance term.
			// charged itself is the snapshot: it moves only after the
			// batch has routed.
			s.loadScale = 0
			if cfg.Penalty > 0 {
				var total int
				for i, c := range s.charged {
					if r.g.Alive(metric.Point(i)) {
						total += c
					}
				}
				if total > 0 {
					s.loadScale = cfg.Penalty * float64(r.g.AliveCount()) / float64(total)
				}
			}
			// The instantaneous signal is the engine's own queue state
			// as this batch's first injection comes due.
			if cfg.DepthPenalty > 0 {
				s.depth = r.depthsAtBatch(start)
			}
			if s.loadScale > 0 || s.depth != nil {
				arena = congested
			}
		}
		if r.err = r.routeRange(arena, start, ws[:end-start]); r.err != nil {
			return
		}
		for i := start; i < end; i++ {
			res := ws[i-start].Result()
			r.out.Results[i] = res
			s.paths[i] = forwarders(res)
			s.delivered[i] = res.Delivered
			for _, p := range s.paths[i] {
				s.charged[p]++
			}
			if r.caching && res.Delivered {
				cfg.Placement.Observe(r.msgs[i].Key, res.Path)
			}
		}
		s.routed = end
		r.admitBatch(start, end)
		if r.tel != nil && r.caching {
			// Promotions triggered by this batch's Observe calls.
			r.cacheDelta(r.out.LastInject)
		}
	}
	for s.h.Len() > 0 {
		r.processOne(s.h.Pop())
	}
}

// admitBatch enqueues the injections of messages [start, end): their
// schedule entries known up front, plus any closed-loop injection
// unlocked while the message was still unrouted.
func (r *runner) admitBatch(start, end int) {
	s := r.snap
	for m := start; m < end; m++ {
		for _, inj := range s.initial[s.initialAt[m]:s.initialAt[m+1]] {
			r.enqueue(inj)
		}
		if s.hasPending[m] {
			s.hasPending[m] = false
			r.enqueue(Injection{Msg: m, Time: s.pendingAt[m]})
		}
	}
}

// depthsAtBatch returns every node's instantaneous queue depth as the
// batch beginning at message `start` is about to route — in the fully
// primed case, in the run's one depth buffer, overwritten every batch.
//
// For a fully primed schedule the loop itself is the probe: all events
// up to the batch's first injection time are processed (they precede
// every event the new batch can add, so the final event sequence is
// unchanged), and each node's depth is read off its live queue in
// O(1) amortized — the engine lookup that replaced the quadratic
// prefix-replay probing of the pre-engine pipeline.
//
// A schedule that is not fully primed (closed-loop feedback) cannot be
// advanced safely — a future batch may still inject earlier than the
// probe — so the prefix [0, start) is replayed in a scratch loop and
// probed at its last injection, reproducing the pre-engine estimate
// exactly: a pure function of already-routed traffic, modelling the
// staleness of queue-depth gossip.
func (r *runner) depthsAtBatch(start int) []int {
	if s := r.snap; s.fullyPrimed {
		probe := r.sched.Initial[start].Time
		for s.h.Len() > 0 && s.h.Peek().time <= probe {
			r.processOne(s.h.Pop())
		}
		if s.depth == nil {
			s.depth = make([]int, len(r.queues))
		}
		for i := range r.queues {
			s.depth[i] = r.queues[i].depthAt(probe)
		}
		return s.depth
	}
	return r.prefixDepths(start)
}

// prefixDepths replays the routed prefix [0, start) in a scratch loop,
// suppressing injections beyond it, and probes queue depths at the
// prefix's last injection (found by a first untimed replay when the
// schedule does not fix it up front).
func (r *runner) prefixDepths(start int) []int {
	scratch := make([]replayMsg, start)
	for i := 0; i < start; i++ {
		scratch[i] = replayMsg{path: r.snap.paths[i], delivered: r.snap.delivered[i]}
	}
	initial := make([]Injection, 0, start)
	for _, inj := range r.sched.Initial {
		if inj.Msg < start {
			initial = append(initial, inj)
		}
	}
	var completed func(m int, at float64) (Injection, bool)
	if r.sched.Completed != nil {
		completed = func(m int, at float64) (Injection, bool) {
			next, ok := r.sched.Completed(m, at)
			if !ok || next.Msg >= start {
				return Injection{}, false
			}
			return next, true
		}
	}
	var probe float64
	if len(r.sched.Initial) == len(r.msgs) && start < len(r.sched.Initial) {
		probe = r.sched.Initial[start].Time
	} else {
		probe = replay(len(r.queues), scratch, r.serviceTime, initial, completed, -1).lastInject
	}
	return replay(len(r.queues), scratch, r.serviceTime, initial, completed, probe).probeDepths
}

// routeRange routes messages [start, start+len(ws)) on arena a into ws.
// Their walkers are carved in message order on this goroutine — the
// arena carves sequentially, and the error reported is the first
// message's that cannot start, whatever cfg.Workers — then stepped to
// completion across cfg.Workers goroutines. Each walk draws only on its
// own derived rng stream, so the assignment of walkers to workers is
// irrelevant.
func (r *runner) routeRange(a *route.Arena, start int, ws []*route.Walker) error {
	for i := range ws {
		w, err := r.startWalker(a, start+i, r.msgs[start+i].From)
		if err != nil {
			return err
		}
		ws[i] = w
	}
	workers := min(r.cfg.Workers, len(ws))
	if workers <= 1 {
		for _, w := range ws {
			for w.Step() {
			}
		}
		return nil
	}
	var (
		next atomic.Int64
		wg   sync.WaitGroup
	)
	wg.Add(workers)
	for k := 0; k < workers; k++ {
		go func() {
			defer wg.Done()
			for i := next.Add(1) - 1; i < int64(len(ws)); i = next.Add(1) - 1 {
				for ws[i].Step() {
				}
			}
		}()
	}
	wg.Wait()
	return nil
}

// enqueue admits one snapshot-mode injection, chasing chains of
// path-less messages (which complete at their injection instant and may
// unlock further injections) and stashing injections whose message is
// not yet routed.
func (r *runner) enqueue(inj Injection) {
	s := r.snap
	for {
		msg := inj.Msg
		if msg >= s.routed {
			// Unlocked before its batch routed: admitted with the batch.
			s.pendingAt[msg] = inj.Time
			s.hasPending[msg] = true
			return
		}
		r.noteInjection(inj)
		if len(s.paths[msg]) > 0 {
			s.h.Push(event{time: inj.Time, msg: msg, idx: 0})
			return
		}
		if r.tel != nil {
			// A path-less snapshot message never enters a queue: it
			// completes at its injection instant.
			r.tel.Complete(msg, inj.Time, s.delivered[msg], r.servedKind(msg, r.out.Results[msg]))
		}
		if r.sched.Completed == nil {
			return
		}
		next, ok := r.sched.Completed(msg, inj.Time)
		if !ok {
			return
		}
		inj = next
	}
}

// noteInjection records that inj entered the network: the bookkeeping
// every mode does at the instant it performs an injection.
func (r *runner) noteInjection(inj Injection) {
	r.inject[inj.Msg] = inj.Time
	r.out.Injected++
	if inj.Time > r.out.LastInject {
		r.out.LastInject = inj.Time
	}
	if r.tel != nil {
		r.tel.Inject(inj.Msg, inj.Time, r.msgs[inj.Msg].From, r.msgs[inj.Msg].Key)
	}
}

// processOne handles one snapshot-mode arrival: the message joins the
// node's FIFO, is served for serviceTime ticks, and moves on to the
// next node of its precomputed path. (The live modes' arrivals are
// shard.process.)
func (r *runner) processOne(a event) {
	s := r.snap
	node := s.paths[a.msg][a.idx]
	start, finish, depth := r.queues[node].serve(a.time, r.serviceTime)
	if depth > r.out.MaxQueueDepth {
		r.out.MaxQueueDepth = depth
	}
	r.out.Loads[node]++
	r.out.Services++
	if finish > r.out.Makespan {
		r.out.Makespan = finish
	}
	if r.tel != nil {
		r.tel.Service(a.time, depth)
		r.tel.Hop(a.msg, node, a.time, start, finish, depth, telemetry.DecisionSnapshot)
	}
	if a.idx+1 < len(s.paths[a.msg]) {
		s.h.Push(event{time: finish, msg: a.msg, idx: a.idx + 1})
		return
	}
	if s.delivered[a.msg] {
		r.out.Latencies = append(r.out.Latencies, finish-r.inject[a.msg])
	}
	if r.tel != nil {
		r.tel.Complete(a.msg, finish, s.delivered[a.msg], r.servedKind(a.msg, r.out.Results[a.msg]))
	}
	if r.sched.Completed != nil {
		if next, ok := r.sched.Completed(a.msg, finish); ok {
			r.enqueue(next)
		}
	}
}

// ---------------------------------------------------------------------
// Live modes: the run-level halves of a lookup's life — admission and
// completion — which always execute on one goroutine, in global event
// order. What happens in between is the owners' business (shard.go,
// pit.go), under either driver (horizon.go).
// ---------------------------------------------------------------------

// targetsFor resolves a message's routing target set as its walker
// starts: the fixed Options.Targets set when configured (mirroring
// Route's precedence), the key's live replica set under a placement,
// or nil for the key alone (the one-member set startWalker builds
// itself).
func (r *runner) targetsFor(msg int) []metric.Point {
	if len(r.cfg.Route.Targets) > 0 {
		return r.cfg.Route.Targets
	}
	if r.cfg.Placement != nil {
		return r.cfg.Placement.Targets(r.msgs[msg].Key)
	}
	return nil
}

// admit performs one live injection at its virtual instant: it ticks
// the decay cadence and creates the walker — so its replica targets and
// first forwarding decision read the placement and congestion state of
// that instant, not of whenever the schedule was primed — and returns
// the lookup's first arrival for the driver to schedule. It reports
// false when there is none: walker creation failed (r.err), or the
// lookup was born delivered or born failed and completed on the spot
// (the successor that unlocks joins r.pend).
func (r *runner) admit(inj Injection) (event, bool) {
	msg := inj.Msg
	r.noteInjection(inj)
	r.injected++
	if r.decaying && r.injected%r.cfg.BatchSize == 0 {
		// One half-life every BatchSize injections — the same
		// staleness knob snapshot mode ties its boundaries to.
		r.cfg.Placement.Decay()
		if r.tel != nil {
			r.cacheDelta(inj.Time)
		}
	}
	from := r.msgs[msg].From
	if r.churn != nil && !r.g.Alive(from) {
		// The source died before this lookup was injected: the client
		// behind the dead portal enters at the nearest alive node.
		p, ok := r.reattachOrigin(from)
		if !ok {
			r.err = errExtinct
			return event{}, false
		}
		from = p
	}
	w, err := r.startWalker(r.arena, msg, from)
	if err != nil {
		if r.churn != nil {
			// Under churn a lookup can be born unroutable — every replica
			// of its key dead at this instant. That is a failed search,
			// not a configuration error.
			r.bornFailed(msg, inj.Time)
		} else {
			r.err = err
		}
		return event{}, false
	}
	r.walkers[msg] = w
	if w.Done() {
		// Born delivered: the lookup completes at its injection
		// instant without entering a queue.
		r.completeBorn(msg, inj.Time)
		return event{}, false
	}
	r.pos[msg] = w.At()
	return event{time: inj.Time, msg: msg, idx: 0}, true
}

// startWalker carves message msg's walker from arena a, starting at
// `from`. The walker copies its target set, so the plain one-key set
// lives on this frame; stream 16+msg of the root lands in the run's
// slab.
func (r *runner) startWalker(a *route.Arena, msg int, from metric.Point) (*route.Walker, error) {
	key := [1]metric.Point{r.msgs[msg].Key}
	targets := r.targetsFor(msg)
	if targets == nil {
		targets = key[:]
	}
	src := &r.srcs[msg]
	r.root.DeriveInto(src, 16+uint64(msg))
	return a.Walker(src, from, targets)
}

// release asks the closed-loop hook which injection msg's completion
// at `at` unlocks; it waits in r.pend for its instant.
func (r *runner) release(msg int, at float64) {
	if r.sched.Completed != nil {
		if next, ok := r.sched.Completed(msg, at); ok {
			r.pend.Push(next)
		}
	}
}

// completeBorn finalizes a zero-hop lookup at its injection instant:
// no queue was entered, so no latency is recorded, but the completion
// still unlocks the closed-loop successor.
func (r *runner) completeBorn(msg int, at float64) {
	r.out.Results[msg] = r.walkers[msg].Result()
	r.doneAt[msg] = at
	if r.tel != nil {
		res := r.out.Results[msg]
		r.tel.Complete(msg, at, res.Delivered, r.servedKind(msg, res))
	}
	r.release(msg, at)
}

// completeLive finalizes one live-mode message at virtual time `at`:
// it records the result and latency, feeds cache-on-path observation,
// unlocks the closed-loop successor, and cascades to any lookups that
// coalesced onto this one.
func (r *runner) completeLive(msg int, at float64, res route.Result) {
	r.out.Results[msg] = res
	r.doneAt[msg] = at
	if res.Delivered {
		// Zero-hop lookups complete at admission and never reach here,
		// so every delivered completion contributes a queueing latency —
		// coalesced lookups included (they waited in a queue too).
		r.out.Latencies = append(r.out.Latencies, at-r.inject[msg])
		if r.caching && r.pitMsgs == nil && (r.aggMsgs == nil || !r.aggMsgs.merged[msg]) {
			// Only real deliveries feed popularity: a coalesced lookup's
			// partial path does not end at the key, so observing it
			// would corrupt the forwarder counts. PIT mode observes at
			// answer spawn instead — the delivery instant, once.
			r.cfg.Placement.Observe(r.msgs[msg].Key, res.Path)
		}
	}
	if r.tel != nil {
		r.tel.Complete(msg, at, res.Delivered, r.servedKind(msg, res))
		if r.caching {
			// An Observe above may have promoted cached copies.
			r.cacheDelta(at)
		}
	}
	r.release(msg, at)
	if r.aggMsgs != nil {
		for _, f := range r.aggMsgs.followers[msg] {
			fr := r.walkers[f].Result()
			fr.Delivered = res.Delivered
			fr.Target = res.Target
			r.completeLive(f, at, fr)
		}
		r.aggMsgs.followers[msg] = nil
	}
}
