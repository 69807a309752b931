package engine

import (
	"fmt"
	"math"
	"time"

	"repro/internal/graph"
	"repro/internal/metric"
	"repro/internal/replica"
	"repro/internal/rng"
	"repro/internal/route"
	"repro/internal/telemetry"
)

// Message is one lookup entering the simulation: a source node and the
// logical key being looked up. The key is the aggregation identity and
// the replica-placement key; without replication it is also the
// routing target.
type Message struct {
	From metric.Point
	Key  metric.Point
}

// Config parameterizes one engine run. The engine takes a *resolved*
// configuration — the caller (package load) owns defaulting — so every
// field here must already be valid: a positive Capacity and BatchSize,
// at least one worker and one shard.
type Config struct {
	// Capacity is the per-node service capacity in message-hops per
	// virtual tick; a node serves one message every 1/Capacity ticks.
	Capacity float64
	// Workers bounds the goroutines snapshot mode spreads one routing
	// batch across (routeRange); it has no other effect anywhere.
	// Live mode — under either driver — computes one hop per
	// service, so there are no whole-path routing batches to spread,
	// and it ignores Workers entirely: live parallelism comes from
	// Shards. Must be at least 1 (the caller owns defaulting), and
	// results are byte-identical for every value in every mode.
	Workers int
	// Shards partitions live mode's event loop across cores: the node
	// set splits into Shards contiguous regions of the space's point
	// order, each owned by a shard with its own event heap, advancing in
	// lockstep virtual-time windows of length 1/Capacity — the safe
	// horizon under which no event can affect another shard's
	// same-window decisions (see shard.go). Results are byte-identical
	// for every value; at 1 a single owner holds every node and runs the
	// same handlers in global event order, with no windows. Sharding
	// applies only to live configurations whose forwarding decisions are
	// message-local: congestion feedback (Penalty, DepthPenalty, or a
	// caller-supplied Route.Congestion) and cache-on-path placements
	// read global live state at every hop, and closed-loop schedules
	// under ModeLiveAggregate can unlock past-time injections, so those
	// runs get one owner whatever Shards says. The resolution is not
	// silent: Config.Plan reports the loop a run will use and
	// the pinned reason, and every Outcome carries the pair. Snapshot
	// mode ignores Shards. Must be at least 1, and at most the node
	// count in live mode.
	Shards int
	// Route configures the routing layer. TracePath asks for each
	// lookup's visited path in Outcome.Results; runs that read the path
	// themselves (snapshot mode, ModeLivePIT, cache-on-path placements)
	// trace whatever it says. The congestion feedback owns Congestion
	// whenever Penalty or DepthPenalty is positive.
	Route route.Options
	// Penalty is the cumulative-load congestion weight: detour budget
	// in distance units per multiple-of-mean charged load.
	Penalty float64
	// DepthPenalty is the instantaneous-queue-depth congestion weight:
	// distance units per message sitting in a candidate's queue.
	DepthPenalty float64
	// BatchSize is the congestion-snapshot cadence of snapshot mode:
	// how many messages route against one frozen signal. Live mode
	// ignores it, since every forwarding decision is fresh.
	BatchSize int
	// Mode selects the simulation discipline: ModeSnapshot (the zero
	// value, the classic route-then-replay pipeline), ModeLive,
	// ModeLiveAggregate, or ModeLivePIT. See the Mode constants.
	Mode Mode
	// PITTimeout is the pending-interest lifetime in virtual ticks
	// (ModeLivePIT only): a PIT entry planted by a request service
	// expires PITTimeout after that service finishes, and a suppressed
	// waiter re-forwards on its own after waiting PITTimeout for an
	// answer. Must be positive and finite in PIT mode, zero otherwise.
	PITTimeout float64
	// PITWaiters bounds one PIT entry's waiter list (ModeLivePIT
	// only): a request arriving at a full entry is not suppressed and
	// forwards normally. Must be at least 1 in PIT mode, zero
	// otherwise.
	PITWaiters int
	// Churn attaches node dynamics: a schedule of crash/join events
	// interleaved with traffic on the virtual clock, detected and
	// repaired by a gossip membership layer charged to the same per-node
	// FIFOs (see churn.go). Enabled churn requires a live mode. Churn
	// runs shard: membership mutations apply only at window barriers,
	// with each window clipped at the next churn-op instant — provided
	// ProbeTimeout is at least the service time 1/Capacity, so strand
	// resumptions land beyond the window horizon; faster probes run
	// under one owner (Config.Plan, PlanReasonChurn).
	Churn ChurnConfig
	// Placement, when non-nil, replicates every key: messages route to
	// the nearest live member of Placement.Targets(key). Cache-on-path
	// observation is driven from engine events (batch boundaries in
	// snapshot mode, delivery events in live mode).
	Placement *replica.Placement
	// Telemetry, when non-nil, attaches the observability layer: the
	// run feeds the recorder's window timeseries, flight recorder, and
	// scheduler profile as it executes. A recorder only observes — it
	// consumes no simulation randomness and feeds nothing back — so
	// every outcome byte is identical with Telemetry nil or set, at
	// every Workers and Shards value. Nil is the zero-cost disabled
	// state: each hook site is one predictable branch, no allocations
	// (pinned by the engine's hot-path alloc tests).
	Telemetry *telemetry.Recorder
}

// validate rejects an unresolved or inconsistent configuration.
func (c Config) validate() error {
	if !(c.Capacity > 0) || math.IsInf(c.Capacity, 0) {
		return fmt.Errorf("engine: capacity %g must be positive and finite", c.Capacity)
	}
	if c.Workers < 1 {
		return fmt.Errorf("engine: workers %d must be at least 1", c.Workers)
	}
	if c.Shards < 1 {
		return fmt.Errorf("engine: shards %d must be at least 1", c.Shards)
	}
	if c.BatchSize < 1 {
		return fmt.Errorf("engine: batch size %d must be at least 1", c.BatchSize)
	}
	if c.Penalty < 0 || c.DepthPenalty < 0 ||
		math.IsNaN(c.Penalty) || math.IsNaN(c.DepthPenalty) {
		return fmt.Errorf("engine: congestion penalties %g/%g must be non-negative",
			c.Penalty, c.DepthPenalty)
	}
	if c.Mode >= modeEnd {
		return fmt.Errorf("engine: unknown mode %d", uint8(c.Mode))
	}
	if c.Mode.PIT() {
		if !(c.PITTimeout > 0) || math.IsInf(c.PITTimeout, 0) {
			return fmt.Errorf("engine: PIT timeout %g must be positive and finite", c.PITTimeout)
		}
		if c.PITWaiters < 1 {
			return fmt.Errorf("engine: PIT waiter bound %d must be at least 1", c.PITWaiters)
		}
	} else if c.PITTimeout != 0 || c.PITWaiters != 0 {
		return fmt.Errorf("engine: PIT knobs (timeout %g, waiters %d) are only meaningful in ModeLivePIT",
			c.PITTimeout, c.PITWaiters)
	}
	if err := c.Churn.validate(c.Mode); err != nil {
		return err
	}
	return nil
}

// Ledger holds a run's conservation counters: the tallies
// Outcome.CheckLedgers balances, and the aggregation count beside them.
// load.Result embeds the same struct.
type Ledger struct {
	// Aggregated counts the lookups coalesced onto a same-key carrier
	// (live aggregation only).
	Aggregated int
	// Suppressed counts PIT suppressions: request arrivals that parked
	// as waiters on a pending same-key interest instead of forwarding
	// (a lookup that times out and re-forwards can be suppressed again,
	// so this counts events, not messages). MulticastFanout counts the
	// waiters released by returning answers — the total fan-out of
	// every PIT multicast — and PITExpired the waits that ended by
	// timeout rather than by an answer. ModeLivePIT only.
	Suppressed, MulticastFanout, PITExpired int
	// Churn ledger (Config.Churn enabled only). Crashes/Joins count the
	// schedule events actually applied. Stranded counts arrivals that
	// found their node dead; each resolves exactly once as StrandResumed
	// (the lookup continued — moved on, replayed at the revived node, or
	// completed delivered) or StrandDropped (it ended undelivered at the
	// resume), so Stranded == StrandResumed + StrandDropped always.
	// Reattached counts injections whose dead source was re-homed to the
	// nearest alive node.
	Crashes, Joins                         int
	Stranded, StrandResumed, StrandDropped int
	Reattached                             int
	// GossipSends counts membership transmissions (gossip pushes and
	// join bootstraps), each charged as one FIFO service at its sender;
	// LinksRebuilt counts long links redrawn by repair and rejoin.
	GossipSends, LinksRebuilt int
	// RumorsConverged/RumorsAbandoned partition the resolved rumors:
	// known by every alive node, or orphaned (every knower crashed).
	// MembershipLag is the worst event-to-convergence time observed.
	RumorsConverged, RumorsAbandoned int
	MembershipLag                    float64
}

// Outcome reports one engine run: the per-message routing results in
// message order, the queueing picture, and the aggregation headline.
// From a Runner's Run, Results and Latencies alias the Runner's memory
// until its next Run; every other field is the run's own.
type Outcome struct {
	// Results holds each message's search outcome. Its Path is the
	// visited sequence when the run traced (see Config.Route) and nil
	// otherwise. Under live aggregation a coalesced message reports its
	// own hops, and when traced its own partial path, but its carrier's
	// Delivered/Target — it was answered at the aggregation point.
	Results []route.Result
	// Loads counts message-hop services per grid point.
	Loads []int
	// Services is the total message-hops serviced (the sum of Loads).
	Services int
	// MaxQueueDepth is the deepest any node's FIFO got, including the
	// message in service.
	MaxQueueDepth int
	// Latencies holds each delivered message's completion minus
	// injection time, in completion order. Zero-hop lookups (source
	// already a target) never enter a queue and contribute none.
	Latencies []float64
	// Injected counts injections the schedule actually performed;
	// LastInject is the latest injection time.
	Injected   int
	LastInject float64
	// Makespan is the finish time of the last service.
	Makespan float64
	Ledger
	// Plan is the execution plan the run resolved to, and PlanReason
	// the pinned explanation for the choice (see Config.Plan).
	Plan       ExecutionPlan
	PlanReason string
}

// CheckLedgers reports the first conservation identity the outcome
// breaks: every message was injected exactly once; every PIT
// suppression ended in a multicast release or an expiry; every strand
// resumed or dropped; every applied crash and join started a rumor that
// converged or was abandoned. A run holds them whatever its inputs, so
// an error here is an engine bug, never a configuration error.
func (o *Outcome) CheckLedgers() error {
	switch {
	case o.Injected != len(o.Results):
		return fmt.Errorf("engine: ledger: %d messages but %d injections", len(o.Results), o.Injected)
	case o.Suppressed != o.MulticastFanout+o.PITExpired:
		return fmt.Errorf("engine: ledger: suppressed %d != fanout %d + expired %d",
			o.Suppressed, o.MulticastFanout, o.PITExpired)
	case o.Stranded != o.StrandResumed+o.StrandDropped:
		return fmt.Errorf("engine: ledger: stranded %d != resumed %d + dropped %d",
			o.Stranded, o.StrandResumed, o.StrandDropped)
	case o.RumorsConverged+o.RumorsAbandoned != o.Crashes+o.Joins:
		return fmt.Errorf("engine: ledger: rumors %d converged + %d abandoned != %d crashes + %d joins",
			o.RumorsConverged, o.RumorsAbandoned, o.Crashes, o.Joins)
	}
	return nil
}

// Run simulates msgs over g under cfg and sched. Message i draws its
// routing randomness from root.Derive(16+i) — the traffic pipeline's
// historical per-message stream contract — so a snapshot-mode run
// reproduces the pre-engine route-then-replay pipeline byte-for-byte
// and is independent of cfg.Workers; a live run is deterministic in
// (g, msgs, sched, cfg, root) and independent of cfg.Shards: with
// several owners every globally-ordered side effect settles at the
// window barrier in exactly the (time, msg, idx) event order one owner
// produces it in (see shard.go). It is a Runner's Run on fresh memory.
func Run(g *graph.Graph, msgs []Message, sched Schedule, cfg Config, root *rng.Source) (*Outcome, error) {
	return new(Runner).Run(g, msgs, sched, cfg, root)
}

// Runner runs the engine again and again on one memory: each Run
// empties and reuses the tables, event heaps and walker arena of the
// run before it instead of allocating its own, so a caller with many
// runs to make — every level of a load.Sweep — pays for them once. The
// zero Runner is ready for use; a Runner is not safe for concurrent use.
type Runner struct{ r runner }

// Run is the package-level Run on x's memory, with the same outcome
// byte for byte. The Outcome's Results (with their Paths) and Latencies
// alias that memory and are overwritten by x's next Run; its Loads and
// everything else are the run's own.
func (x *Runner) Run(g *graph.Graph, msgs []Message, sched Schedule, cfg Config, root *rng.Source) (*Outcome, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.Mode.Live() && cfg.Shards > g.Size() {
		return nil, fmt.Errorf("engine: shards %d exceed the node count %d", cfg.Shards, g.Size())
	}
	if err := checkPackable(len(msgs), cfg.Route.ResolvedMaxHops(g.Size())); err != nil {
		return nil, err
	}
	// Every hop reads its node's neighbour row. A run builds the rows
	// here, before any shard or worker starts, and a graph reused across
	// runs (every run of a load.Sweep) builds them once; churn barriers
	// re-derive what their ops staled.
	g.RefreshRows()
	r := x.r.reset(g, msgs, sched, cfg, root)
	if r.err != nil {
		return nil, r.err
	}
	started := time.Now()
	switch r.out.Plan {
	case PlanLiveSharded:
		r.runWindows()
	case PlanLiveSequential:
		for r.err == nil && r.step() {
		}
	default:
		r.runSnapshot()
	}
	if r.err != nil {
		return nil, r.err
	}
	r.shards.fold(r.out)
	if r.tel != nil {
		r.tel.EndRun(time.Since(started).Seconds(), r.out.Services)
	}
	return r.out, nil
}
