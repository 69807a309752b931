package engine

import "fmt"

// Mode selects the engine's simulation discipline. It replaces the
// former Live/Aggregate bool pair (which was about to grow a third
// flag): exactly one mode is in force per run, the zero value is the
// historical default, and validate() cross-checks every mode-dependent
// knob so an inconsistent configuration is an error, not a silent
// reinterpretation.
type Mode uint8

const (
	// ModeSnapshot (the zero value) is the classic route-then-replay
	// pipeline: whole paths computed in congestion-snapshot batches,
	// then replayed through the FIFO queues.
	ModeSnapshot Mode = iota
	// ModeLive is event-driven routing: messages advance hop-by-hop at
	// their service completions and every forwarding decision reads
	// live load, queue depth, and replica placement.
	ModeLive
	// ModeLiveAggregate is live routing plus per-queue coalescing:
	// same-key lookups that meet in a node's queue merge into one
	// aggregated service and complete with their carrier.
	ModeLiveAggregate
	// ModeLivePIT is live routing plus per-node pending-interest
	// tables: a delivered lookup spawns an answer that retraces the
	// reverse path hop by hop, every request service plants a PIT
	// entry, a same-key request arriving while an entry is pending is
	// suppressed network-wide (it parks as a waiter instead of
	// forwarding), and a returning answer multicasts to every recorded
	// waiter. PIT supersedes aggregation: the in-queue merge is a
	// special case of the in-network suppression, so the two are not
	// composed.
	ModeLivePIT

	modeEnd // sentinel: first invalid value
)

// Live reports whether the mode runs the event-driven loop (any mode
// but snapshot).
func (m Mode) Live() bool { return m == ModeLive || m == ModeLiveAggregate || m == ModeLivePIT }

// Aggregate reports whether same-key lookups coalesce in queues.
func (m Mode) Aggregate() bool { return m == ModeLiveAggregate }

// PIT reports whether per-node pending-interest tables and the answer
// leg are in force.
func (m Mode) PIT() bool { return m == ModeLivePIT }

func (m Mode) String() string {
	switch m {
	case ModeSnapshot:
		return "snapshot"
	case ModeLive:
		return "live"
	case ModeLiveAggregate:
		return "live+aggregate"
	case ModeLivePIT:
		return "live+pit"
	default:
		return fmt.Sprintf("mode(%d)", uint8(m))
	}
}

// ExecutionPlan is the loop a run resolves to. The engine used to pick
// it silently (requesting Shards > 1 on an ineligible configuration
// just ran sequentially); Config.Plan makes the choice, and the reason
// for it, a first-class inspectable output.
type ExecutionPlan uint8

const (
	// PlanSnapshot: the batched route-then-replay pipeline.
	PlanSnapshot ExecutionPlan = iota
	// PlanLiveSequential: one owner of every node — a single event
	// heap popped in global event order on one goroutine.
	PlanLiveSequential
	// PlanLiveSharded: the same handlers on per-core owners of
	// contiguous node regions, synchronized in conservative
	// virtual-time windows.
	PlanLiveSharded
)

func (p ExecutionPlan) String() string {
	switch p {
	case PlanSnapshot:
		return "snapshot"
	case PlanLiveSequential:
		return "live-sequential"
	case PlanLiveSharded:
		return "live-sharded"
	default:
		return fmt.Sprintf("plan(%d)", uint8(p))
	}
}

// The pinned Plan reasons, one per way a live run declines sharding
// (and one per trivially-resolved plan). Tests pin these strings; they
// are part of the API surface ftrsim prints and ftrbench records.
const (
	// PlanReasonSnapshot: snapshot mode has no live event loop to
	// partition — Shards applies only to live modes.
	PlanReasonSnapshot = "snapshot mode routes whole paths in batches; Shards applies only to the live loop"
	// PlanReasonSingleShard: one shard is the sequential loop by
	// definition.
	PlanReasonSingleShard = "one shard requested: the sequential loop is the single-core plan"
	// PlanReasonChurn: churn itself is shard-eligible — membership
	// mutations apply only at window barriers, with the safe horizon
	// clipped at the next churn-op instant — but that argument needs
	// every strand resumption to land at or beyond the window horizon,
	// which holds exactly when ProbeTimeout covers the lookahead
	// (one service time). A faster probe could resume a stranded
	// message inside the window being drained.
	PlanReasonChurn = "churn probe timeout is shorter than the service time, so a stranded message could resume inside a window; the sequential loop is the fallback"
	// PlanReasonCongestion: Penalty/DepthPenalty/Route.Congestion read
	// globally-accumulated charge and arbitrary nodes' instantaneous
	// queue depths at every hop.
	PlanReasonCongestion = "congestion feedback (Penalty, DepthPenalty, or Route.Congestion) reads global live state at every hop"
	// PlanReasonCaching: cache-on-path placements mutate the shared
	// replica sets on delivery and read them at injection.
	PlanReasonCaching = "cache-on-path placement mutates shared replica sets on delivery"
	// PlanReasonClosedLoopAggregate: an aggregation merge settles at
	// its carrier's completion time, which may lie inside the window
	// being drained, so a closed-loop schedule could unlock an
	// injection at a past instant.
	PlanReasonClosedLoopAggregate = "closed-loop aggregation can settle merges at past instants, unlocking injections inside the window"
	// PlanReasonSharded: the eligible case — every forwarding decision
	// is message-local, so shards can drain windows independently.
	PlanReasonSharded = "forwarding decisions are message-local; shards drain virtual-time windows in parallel"
)

// Plan resolves the execution plan for this configuration driving
// sched, and the pinned reason for the choice. Eligibility depends on
// the schedule's shape (a closed-loop Completed hook interacts with
// aggregation), which is why the schedule is an argument rather than a
// Config field. Plan is a pure function of its inputs; Run dispatches
// on exactly this result and reports it in Outcome.Plan/PlanReason.
//
// PIT runs stay shard-eligible under a closed-loop schedule, unlike
// aggregation: every PIT completion is recorded at a service finish
// time, which lies at or beyond the window horizon by the lookahead
// argument, so the injections it unlocks always belong to a later
// window.
//
// Churn runs are shard-eligible too: the schedule is materialized
// before the run, so the sharded loop clips each window at the next
// churn-op instant and applies membership mutations only at barriers
// (see horizon.go). The one knob that can break the window argument is
// a probe timeout shorter than the lookahead — a stranded message
// would resume before the horizon — so exactly those configurations
// fall back (PlanReasonChurn).
func (c Config) Plan(sched Schedule) (ExecutionPlan, string) {
	if !c.Mode.Live() {
		return PlanSnapshot, PlanReasonSnapshot
	}
	if c.Shards <= 1 {
		return PlanLiveSequential, PlanReasonSingleShard
	}
	if c.Churn.Enabled() && c.Churn.ProbeTimeout < 1/c.Capacity {
		return PlanLiveSequential, PlanReasonChurn
	}
	if c.Penalty > 0 || c.DepthPenalty > 0 || c.Route.Congestion != nil {
		return PlanLiveSequential, PlanReasonCongestion
	}
	if c.Placement != nil && c.Placement.Caching() {
		return PlanLiveSequential, PlanReasonCaching
	}
	if c.Mode.Aggregate() && sched.Completed != nil {
		return PlanLiveSequential, PlanReasonClosedLoopAggregate
	}
	return PlanLiveSharded, PlanReasonSharded
}
