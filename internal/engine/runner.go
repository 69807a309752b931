package engine

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/graph"
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

	// inject[m] is the instant the schedule fixed for message m's
	// injection, -1 until it did — which is also how a schedule that
	// injects a message twice is caught (claim).
	inject []float64

	// caching is cfg.Placement.Caching(), resolved once.
	caching bool

	// tel is the attached telemetry recorder (nil = disabled; every
	// hook site checks). seenPromos is the placement's promotion
	// counter as of the last poll, so cache events report as deltas
	// attributed to the virtual time of the triggering engine event.
	tel        *telemetry.Recorder
	seenPromos int

	// snap is snapshot mode's batch-router state (nil in the live modes).
	snap *snapshotState

	// Each message in flight has a walker from the run's arena, which
	// takes it back at the lookup's completion (retire) and keeps its
	// path, when the run traces (initLive), for Outcome.Results, so a
	// run carves about its peak of lookups in flight — 75 % of
	// live_seq's, 6.8 % of churn_pit's — and walkers[m] is nil before
	// admission and after completion. Its rng stream is slot m of one
	// per-run slab (srcs). (Snapshot mode carves a batch at a time and
	// releases the batch once its results are copied out; walkers stays
	// nil.) Every mode: each message's current node, and its completion
	// time (-1 while in flight); the injections not yet admitted, ordered
	// by (time, msg); and the owners of the node set, whose heaps hold
	// every pending event (shard.go).
	arena   *route.Arena
	srcs    []rng.Source
	walkers []*route.Walker
	pos     []metric.Point
	doneAt  []float64
	pend    pending
	shards  *shardSet

	// Per-discipline live state, nil unless the configuration has it:
	// the congestion signal (Penalty/DepthPenalty), the per-message
	// halves of aggregation and PIT (the per-node halves live on the
	// owning shard), and node dynamics (churn.go).
	cong    *congestion
	aggMsgs *aggMsgState
	pitMsgs *pitMsgState
	churn   *churnState
}

// snapshotState is snapshot mode's batch-router state: the forwarder
// path each routed message replays on the live loop, and each message's
// up-front injection instant (-1 when the schedule has none for it: a
// closed-loop successor, which Completed unlocks), admitted when its
// batch routes.
type snapshotState struct {
	paths     [][]metric.Point
	initialAt []float64

	// The congestion signal a batch routes against, frozen between
	// batches and read by the router's congestion closure: services
	// charged per node by the batches routed so far, their scale, and
	// the queue depths at the batch's first injection (nil without a
	// DepthPenalty).
	charged   []int
	loadScale float64
	depth     []int

	// fullyPrimed reports that the schedule fixed every message's
	// injection up front, in message order, at nondecreasing times —
	// the shape of the open-loop arrival models, whose whole schedule is
	// known before the loop starts, and under which depth probes can
	// read the run's own loop instead of replaying the prefix on a
	// scratch one.
	fullyPrimed bool
}

// congestion is the live congestion signal's state: services charged
// so far, per node and in total, and the instant of the forwarding
// decision being made (read by the closure initLive installs).
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
// message starts its answer leg, and released with it when that leg is a
// waiter's, forked by another answer's multicast before its own walk
// reached a target; ansPath/ansAt/ansTarget hold the reverse path, the
// index of the next node to service, and the delivery target the answer
// reports.
type pitMsgState struct {
	parked      []bool
	waitIdx     []int
	expiredOnce []bool
	answering   []bool
	released    []bool
	ansAt       []int
	ansPath     [][]metric.Point
	ansTarget   []metric.Point
}

// reset readies r for a run of msgs over g and returns it. What the
// previous run on r allocated and no caller holds — the per-message and
// per-node tables, the snapshot state, the event heaps and the walker
// arena — is emptied and reused; everything else starts from zero.
func (r *runner) reset(g *graph.Graph, msgs []Message, sched Schedule, cfg Config, root *rng.Source) *runner {
	n, old, prev := len(msgs), *r, Outcome{}
	if old.out != nil {
		prev = *old.out
	}
	*r = runner{
		g:           g,
		msgs:        msgs,
		sched:       sched,
		cfg:         cfg,
		root:        root,
		tel:         cfg.Telemetry,
		serviceTime: 1 / cfg.Capacity,
		queues:      reuse(old.queues, g.Size()),
		inject:      reuse(old.inject, n),
		arena:       old.arena,
		srcs:        reuse(old.srcs, n),
		pos:         reuse(old.pos, n),
		doneAt:      reuse(old.doneAt, n),
		out: &Outcome{
			Results:   reuse(prev.Results, n),
			Loads:     make([]int, g.Size()),
			Latencies: reuse(prev.Latencies, n)[:0],
		},
	}
	for i := range r.inject {
		r.inject[i], r.doneAt[i] = -1, -1
	}
	for _, inj := range sched.Initial {
		if r.err = r.claim(inj, 0); r.err != nil {
			return r
		}
	}
	r.out.Plan, r.out.PlanReason = cfg.Plan(sched)
	if cfg.Placement != nil {
		r.caching = cfg.Placement.Caching()
	}
	if cfg.Mode.Live() {
		r.walkers = reuse(old.walkers, n)
		r.initLive()
	} else {
		s := old.snap
		if s == nil {
			s = new(snapshotState)
		}
		*s = snapshotState{
			paths:       reuse(s.paths, n),
			initialAt:   append(s.initialAt[:0], r.inject...), // as claim fixed them up front
			charged:     reuse(s.charged, g.Size()),
			fullyPrimed: len(sched.Initial) == n,
		}
		for i, inj := range sched.Initial {
			s.fullyPrimed = s.fullyPrimed && inj.Msg == i && (i == 0 || inj.Time >= sched.Initial[i-1].Time)
		}
		r.snap = s
		r.pend = newPending(nil)
	}
	if r.tel != nil {
		// Before the owners are built: each takes its recorder view of
		// this run.
		r.tel.BeginRun(cfg.Capacity, n)
	}
	owners := 1
	if r.out.Plan == PlanLiveSharded {
		owners = cfg.Shards
	}
	r.shards = newShardSet(r, owners, old.shards)
	return r
}

// reuse returns s resliced to n zero elements, allocating only when its
// capacity is short of n.
func reuse[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	clear(s[:n])
	return s[:n]
}

// initLive builds the live modes' per-run state: the churn layer, the
// walkers, the per-discipline tables, the arena whose router reads the
// live congestion signal, and every up-front injection, pending.
func (r *runner) initLive() {
	g, cfg, n := r.g, r.cfg, len(r.msgs)
	if cfg.Churn.Enabled() {
		// Stream 5 of the run's root is the churn layer's randomness
		// (gossip peer draws, repair link redraws); streams 16+i stay the
		// per-message routing contract, so a schedule with zero events
		// consumes nothing and perturbs nothing.
		r.churn = newChurnState(g, cfg.Churn, r.root.Derive(5))
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
			released:    make([]bool, n),
			ansAt:       make([]int, n),
			ansPath:     make([][]metric.Point, n),
			ansTarget:   make([]metric.Point, n),
		}
	}
	// A walker traces its path only when something reads it: the caller
	// (Outcome.Results[i].Path), a PIT answer leg that retraces it, or
	// cache-on-path observation at delivery. Hops, Delivered and Target
	// do not need it.
	ropt := cfg.Route
	ropt.TracePath = cfg.Route.TracePath || cfg.Mode.PIT() || r.caching
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
				s += float64(cfg.DepthPenalty * float64(r.queues[q].depthAt(c.now, r.serviceTime)))
			}
			return s
		}
	}
	r.arena = r.arena.Reuse(route.New(g, ropt))
	r.pend = newPending(r.sched.Initial)
}

// claim checks that inj is a legal injection — one of the run's
// messages, at a finite instant no earlier than notBefore (the unlocking
// completion's, or 0 up front), for a message no earlier entry claimed
// — and fixes its message's injection instant.
func (r *runner) claim(inj Injection, notBefore float64) error {
	switch m := inj.Msg; {
	case m < 0 || m >= len(r.msgs):
		return fmt.Errorf("engine: schedule injects message %d of %d", m, len(r.msgs))
	case !(inj.Time >= notBefore) || math.IsInf(inj.Time, 1):
		return fmt.Errorf("engine: schedule injects message %d at t=%g, not a finite instant at or after %g", m, inj.Time, notBefore)
	case r.inject[m] >= 0:
		return fmt.Errorf("engine: schedule injects message %d twice", m)
	}
	r.inject[inj.Msg] = inj.Time
	return nil
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
	if r.pitMsgs != nil && r.pitMsgs.released[msg] {
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

// cacheDelta polls the placement's cumulative promotion counter and
// reports what changed since the last poll, attributed to virtual
// time t. Called (with tel enabled) right after every engine event
// that can move it: Observe on delivery.
func (r *runner) cacheDelta(t float64) {
	p := r.cfg.Placement.CachePromotions()
	r.tel.Cache(t, p-r.seenPromos)
	r.seenPromos = p
}

// ---------------------------------------------------------------------
// Snapshot mode: the classic route-then-replay pipeline, whose replay
// is the live loop's. Routing happens here, in congestion-snapshot
// batches; each batch's injections are admitted as it routes, and the
// one-owner loop (step) replays the precomputed paths through the same
// handlers the live modes run — advanced only as far as the depth
// probes need until the last batch has routed, so the event sequence is
// identical to replaying everything at once.
// ---------------------------------------------------------------------

func (r *runner) runSnapshot() {
	cfg, s := r.cfg, r.snap
	aware := cfg.Penalty > 0 || cfg.DepthPenalty > 0
	ropt := cfg.Route
	ropt.TracePath = true // the replay runs every routed path (forwarders)
	if aware {
		// The congestion feedback owns this field (the documented
		// contract): the caller's signal gives way to what each batch
		// froze in s. It is zero everywhere until a batch has charged
		// load or probed depths — the first, zero-load batch's — and a
		// signal zero everywhere picks the hop-optimal neighbour, as no
		// signal does.
		ropt.Congestion = func(q metric.Point) float64 {
			c := float64(float64(s.charged[q]) * s.loadScale)
			if s.depth != nil {
				c += float64(cfg.DepthPenalty * float64(s.depth[q]))
			}
			return c
		}
	}
	r.arena = r.arena.Reuse(route.New(r.g, ropt))
	batch := len(r.msgs)
	if aware || r.caching {
		batch = min(cfg.BatchSize, batch)
	}
	// One batch's walkers at a time: they go back to their arena as the
	// batch's results are copied out, so the next batch reuses them.
	ws := make([]*route.Walker, batch)
	for start := 0; start < len(r.msgs); start += batch {
		end := start + batch
		if end > len(r.msgs) {
			end = len(r.msgs)
		}
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
				r.depthsAtBatch(start)
			}
		}
		if r.err != nil {
			return // a depth probe's loop met a malformed schedule
		}
		if r.err = r.routeRange(start, ws[:end-start]); r.err != nil {
			return
		}
		for i := start; i < end; i++ {
			res := r.arena.Release(ws[i-start])
			r.out.Results[i] = res
			s.paths[i] = forwarders(res)
			for _, p := range s.paths[i] {
				s.charged[p]++
			}
			if r.caching && res.Delivered {
				cfg.Placement.Observe(r.msgs[i].Key, res.Path)
			}
		}
		r.admitRouted(start, end)
		if r.tel != nil && r.caching {
			// Promotions triggered by this batch's Observe calls.
			r.cacheDelta(r.out.LastInject)
		}
	}
	r.advanceTo(math.Inf(1))
}

// admitRouted admits the up-front injections of the routed messages
// [start, end), in message order. The closed-loop successors they
// unlock wait in r.pend, like any run's: the loop admits them in event
// order, by which time their messages have routed too.
func (r *runner) admitRouted(start, end int) {
	for m := start; m < end && r.err == nil; m++ {
		if t := r.snap.initialAt[m]; t >= 0 {
			if a, ok := r.admit(Injection{Msg: m, Time: t}); ok {
				r.pushEvent(a)
			}
		}
	}
}

// advanceTo runs the one-owner loop through every injection and event
// due at or before t.
func (r *runner) advanceTo(t float64) {
	h := &r.shards.shards[0].h
	for r.err == nil && (h.Len() > 0 && h.Peek().time <= t || r.pend.Len() > 0 && r.pend.Peek().Time <= t) {
		r.step()
	}
}

// depthsAtBatch fills the run's one depth buffer, s.depth, with every
// node's instantaneous queue depth as the batch beginning at message
// `start` is about to route.
//
// For a fully primed schedule the run's own loop is the probe: every
// injection and event up to the batch's first injection time is
// processed (they precede every event the new batch can add, so the
// event sequence is unchanged), and each node's depth is read off its
// queue in O(1) amortized — the engine lookup that replaced the
// quadratic prefix-replay probing of the pre-engine pipeline.
//
// A schedule that is not fully primed (closed-loop feedback) cannot be
// advanced safely — a future batch may still inject earlier than the
// probe — so the prefix [0, start) runs on a scratch runner's loop and
// is probed at its last injection (found by a first run to the end when
// the schedule does not fix it up front), reproducing the pre-engine
// estimate exactly: a pure function of already-routed traffic,
// modelling the staleness of queue-depth gossip.
func (r *runner) depthsAtBatch(start int) {
	s := r.snap
	if s.depth == nil {
		s.depth = make([]int, len(r.queues))
	}
	probe, loop := 0.0, r
	switch {
	case s.fullyPrimed:
		probe = r.sched.Initial[start].Time
	case len(r.sched.Initial) == len(r.msgs):
		probe, loop = r.sched.Initial[start].Time, r.prefix(start)
	default:
		loop = r.prefix(start)
		loop.advanceTo(math.Inf(1))
		probe, loop = loop.out.LastInject, r.prefix(start)
	}
	loop.advanceTo(probe)
	if r.err = loop.err; r.err != nil {
		return
	}
	for i := range loop.queues {
		s.depth[i] = loop.queues[i].depthAt(probe, loop.serviceTime)
	}
}

// prefix returns a scratch runner holding the routed messages
// [0, start) — their paths, and the injections the schedule gives them
// that stay inside the prefix — admitted and ready to run, with no
// telemetry and no placement.
func (r *runner) prefix(start int) *runner {
	var sched Schedule
	for _, inj := range r.sched.Initial {
		if inj.Msg < start {
			sched.Initial = append(sched.Initial, inj)
		}
	}
	if completed := r.sched.Completed; completed != nil {
		sched.Completed = func(m int, at float64) (Injection, bool) {
			next, ok := completed(m, at)
			return next, ok && next.Msg < start
		}
	}
	cfg := r.cfg
	cfg.Telemetry, cfg.Placement = nil, nil
	p := new(runner).reset(r.g, r.msgs[:start], sched, cfg, r.root)
	copy(p.snap.paths, r.snap.paths)
	copy(p.out.Results, r.out.Results)
	p.admitRouted(0, start)
	return p
}

// routeRange routes messages [start, start+len(ws)) into ws.
// Their walkers are carved in message order on this goroutine — the
// arena carves sequentially, and the error reported is the first
// message's that cannot start, whatever cfg.Workers — then stepped to
// completion across cfg.Workers goroutines. Each walk draws only on its
// own derived rng stream, so the assignment of walkers to workers is
// irrelevant.
func (r *runner) routeRange(start int, ws []*route.Walker) error {
	for i := range ws {
		w, err := r.startWalker(start+i, r.msgs[start+i].From)
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

// ---------------------------------------------------------------------
// The run-level halves of a lookup's life — admission and completion —
// which always execute on one goroutine, in global event order, in
// every mode. What happens in between is the owners' business
// (shard.go, pit.go), under either driver (horizon.go).
// ---------------------------------------------------------------------

// targetsFor resolves a message's routing target set as its walker
// starts: the key's live replica set under a placement, or nil for the
// key alone (the one-member set startWalker builds itself).
func (r *runner) targetsFor(msg int) []metric.Point {
	if r.cfg.Placement != nil {
		return r.cfg.Placement.Targets(r.msgs[msg].Key)
	}
	return nil
}

// admit performs one injection at its virtual instant and returns the
// lookup's first arrival for the driver to schedule. A snapshot-mode
// lookup's path is routed already; a live one's walker is created now,
// so its replica targets and first forwarding decision read the
// placement and congestion state of that instant, not of whenever the
// schedule was primed. It reports false
// when there is no first arrival: walker creation failed (r.err), or
// the lookup was born delivered or born failed and completed on the
// spot (the successor that unlocks joins r.pend).
func (r *runner) admit(inj Injection) (event, bool) {
	msg := inj.Msg
	r.out.Injected++
	if inj.Time > r.out.LastInject {
		r.out.LastInject = inj.Time
	}
	if r.tel != nil {
		r.tel.Inject(msg, inj.Time, r.msgs[msg].From, r.msgs[msg].Key)
	}
	if s := r.snap; s != nil {
		if len(s.paths[msg]) == 0 {
			r.completeBorn(msg, inj.Time)
			return event{}, false
		}
		r.pos[msg] = s.paths[msg][0]
		return event{time: inj.Time, msg: msg, idx: 0}, true
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
	w, err := r.startWalker(msg, from)
	if err != nil {
		if r.churn != nil {
			// Under churn a lookup can be born unroutable — every replica
			// of its key dead at this instant. That is a failed search
			// with an empty path, not a configuration error.
			r.completeBorn(msg, inj.Time)
		} else {
			r.err = err
		}
		return event{}, false
	}
	if w.Done() {
		r.out.Results[msg] = r.arena.Release(w)
		r.completeBorn(msg, inj.Time)
		return event{}, false
	}
	r.walkers[msg] = w
	r.pos[msg] = w.At()
	return event{time: inj.Time, msg: msg, idx: 0}, true
}

// startWalker carves message msg's walker from the run's arena, starting at
// `from`. The walker copies its target set, so the plain one-key set
// lives on this frame; stream 16+msg of the root lands in the run's
// slab.
func (r *runner) startWalker(msg int, from metric.Point) (*route.Walker, error) {
	key := [1]metric.Point{r.msgs[msg].Key}
	targets := r.targetsFor(msg)
	if targets == nil {
		targets = key[:]
	}
	src := &r.srcs[msg]
	r.root.DeriveInto(src, 16+uint64(msg))
	return r.arena.Walker(src, from, targets)
}

// release asks the closed-loop hook which injection msg's completion
// at `at` unlocks; it waits in r.pend for its instant. One the schedule
// could not legally make (claim) ends the run with an error instead.
func (r *runner) release(msg int, at float64) {
	if r.sched.Completed == nil {
		return
	}
	next, ok := r.sched.Completed(msg, at)
	if !ok {
		return
	}
	if err := r.claim(next, at); err != nil {
		r.err = err
		return
	}
	r.pend.Push(next)
}

// completeBorn finalizes a path-less lookup — born delivered, or born
// failed — at its injection instant, with the result admission
// recorded: no queue was entered, so no latency is recorded, but the
// completion still unlocks the closed-loop successor.
func (r *runner) completeBorn(msg int, at float64) {
	r.doneAt[msg] = at
	if r.tel != nil {
		res := r.out.Results[msg]
		r.tel.Complete(msg, at, res.Delivered, r.servedKind(msg, res))
	}
	r.release(msg, at)
}

// completeLive finalizes one message at virtual time `at`: it records
// the result and latency, feeds cache-on-path observation, unlocks the
// closed-loop successor, cascades to any lookups that coalesced onto
// this one, and retires the message's walker.
func (r *runner) completeLive(msg int, at float64, res route.Result) {
	r.out.Results[msg] = res
	r.doneAt[msg] = at
	if res.Delivered {
		// Zero-hop lookups complete at admission and never reach here,
		// so every delivered completion contributes a queueing latency —
		// coalesced lookups included (they waited in a queue too).
		r.out.Latencies = append(r.out.Latencies, at-r.inject[msg])
		if r.caching && r.snap == nil && r.pitMsgs == nil && (r.aggMsgs == nil || !r.aggMsgs.merged[msg]) {
			// Only real deliveries feed popularity: a coalesced lookup's
			// partial path does not end at the key, so observing it
			// would corrupt the forwarder counts. Snapshot mode observed
			// when its batch routed, and PIT mode observes at answer
			// spawn — the delivery instant, once.
			r.cfg.Placement.Observe(r.msgs[msg].Key, res.Path)
		}
	}
	if r.tel != nil {
		r.tel.Complete(msg, at, res.Delivered, r.servedKind(msg, res))
		if r.caching {
			// An Observe above may have promoted cached copies (a poll
			// that finds none records nothing).
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
	if r.snap == nil { // snapshot mode released its walkers as each batch routed
		r.retire(msg)
	}
}

// retire hands a completed message's walker back to the arena, after
// the last read of it: the message's Result, recorded from the walker,
// takes the path the arena keeps, and walkers[msg] and the answer leg's
// reverse path, which alias the walker, are dropped so that a later read
// fails loudly instead of seeing another lookup's walk.
func (r *runner) retire(msg int) {
	r.out.Results[msg].Path = r.arena.Release(r.walkers[msg]).Path
	r.walkers[msg] = nil
	if p := r.pitMsgs; p != nil {
		p.ansPath[msg] = nil
	}
}
