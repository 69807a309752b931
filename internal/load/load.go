package load

import (
	"fmt"
	"math"
	"runtime"

	"repro/internal/engine"
	"repro/internal/failure"
	"repro/internal/graph"
	"repro/internal/replica"
	"repro/internal/rng"
	"repro/internal/route"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// Config parameterizes one traffic run. The zero value of every field
// selects a sensible default; Workers never affects results, only
// wall-clock time.
type Config struct {
	// Messages is the number of lookups injected. Zero defaults to 256.
	Messages int
	// Capacity is the per-node service capacity in message-hops per
	// virtual tick; a node serves one message every 1/Capacity ticks.
	// Zero defaults to 1.
	Capacity float64
	// Rate is the network-wide injection rate in messages per virtual
	// tick (message i is injected at tick i/Rate). Zero defaults to 1.
	// Ignored when Arrival is non-nil.
	Rate float64
	// Arrival selects the arrival model feeding the event loop; nil
	// defaults to the fixed-rate open-loop model Periodic(Rate). Poisson
	// and ClosedLoop select the saturation-sweep arrival regimes.
	Arrival Arrival
	// Workers bounds path-computation parallelism in snapshot mode;
	// zero uses GOMAXPROCS. Live mode ignores it — its parallelism
	// comes from Shards. Results are byte-identical for every value.
	Workers int
	// Shards partitions the live event loop across cores: nodes split
	// into Shards contiguous regions of the space's point order, each
	// draining its own event heap in lockstep virtual-time windows one
	// service time long. Zero defaults to 1, the sequential reference
	// mode; results are byte-identical for every value. Live
	// configurations whose forwarding decisions read global state
	// (Penalty, DepthPenalty, a Route.Congestion hook, cache-on-path
	// replication, or closed-loop arrivals under Aggregate) fall back
	// to the sequential loop whatever Shards says, and snapshot mode
	// ignores Shards entirely (a no-op, not an error). Must not exceed
	// the node count in live mode.
	Shards int
	// Route configures the underlying router. Run reads no path, so
	// TracePath only costs memory here; the engine traces on its own
	// where it reads the visited sequence (snapshot mode, PIT answer
	// legs, cache-on-path). Congestion is overwritten when Penalty or
	// DepthPenalty is positive.
	Route route.Options
	// Penalty, when positive, enables load-aware routing: greedy with
	// congestion-penalized detours (route.Options.Congestion). The
	// congestion of a node is its charged load divided by the mean
	// live-node load, times Penalty — so Penalty is the detour budget
	// in distance units per multiple-of-mean load, independent of how
	// much traffic has accumulated. Zero keeps the paper's hop-optimal
	// greedy.
	Penalty float64
	// DepthPenalty, when positive, adds an instantaneous-queue-depth
	// term to the congestion signal: a candidate node costs an extra
	// DepthPenalty distance units per message sitting in its queue.
	// Where Penalty reacts to cumulative charged load, DepthPenalty
	// reacts to the backlog right now — the signal that matters near
	// saturation. Both compose (and compose with any dead-end policy,
	// since the congestion-penalized greedy preserves strict metric
	// progress). In snapshot mode the depth is read at each batch
	// boundary from the engine's own queues; in live mode at every
	// forwarding decision.
	DepthPenalty float64
	// BatchSize is how many messages route against one frozen
	// congestion snapshot when Penalty or DepthPenalty is positive —
	// the staleness of load information in a real system. Zero defaults
	// to 32. Cache-on-path replication shares the same batching: cached
	// copies placed during one batch serve traffic from the next. Live
	// mode ignores it.
	BatchSize int
	// Live switches the engine to event-driven routing: messages
	// advance hop-by-hop at their service completions, and every
	// forwarding decision (Penalty, DepthPenalty, nearest-replica
	// targets, cache observation) reads live state instead of a batch
	// snapshot. Off, the engine reproduces the classic
	// route-then-replay pipeline byte-for-byte.
	Live bool
	// Aggregate, in live mode, coalesces same-key lookups that meet in
	// a node's queue into a single aggregated service: the duplicates
	// ride along and complete when their carrier completes. Requires
	// Live; Result.Aggregated counts the coalesced lookups.
	Aggregate bool
	// PIT, in live mode, gives every node a pending-interest table and
	// makes the response leg first-class traffic: a delivered lookup
	// spawns an answer retracing the reverse path hop by hop through
	// the same FIFO capacity, every request service plants a pending
	// interest at its node, a same-key request arriving while one is
	// pending parks as a waiter instead of forwarding (the network-wide
	// generalization of Aggregate's per-queue merge), and a returning
	// answer multicasts to every recorded waiter. Requires Live, and
	// supersedes Aggregate when both are set (the in-queue merge is a
	// special case of the in-network suppression). Latencies are then
	// measured to answer receipt at the origin, not to delivery.
	PIT bool
	// PITTimeout is the pending-interest lifetime in virtual ticks:
	// how long an entry suppresses duplicates after the service that
	// planted it, and how long a suppressed waiter waits before
	// re-forwarding on its own. Zero defaults to 64 service times
	// (64/Capacity). Meaningful only with PIT.
	PITTimeout float64
	// PITWaiters bounds one pending interest's waiter list; arrivals
	// beyond it forward normally. Zero defaults to 16. Meaningful only
	// with PIT.
	PITWaiters int
	// Churn, when enabled (any field set — see failure.ChurnSpec),
	// schedules node dynamics on the run's virtual clock: background
	// Poisson crash/join churn, an optional correlated regional kill,
	// and an optional flash-crowd join, detected and repaired by the
	// engine's gossip membership layer. Requires Live. The concrete
	// event list is drawn from the run seed (stream 4) before traffic
	// starts, so a fixed (cfg, seed) pins the whole timeline. Note that
	// the engine applies the events to the caller's graph as they fire:
	// after Run returns, g reflects the post-churn world. ProbeTimeout
	// defaults to 4 service times, GossipInterval to 1 service time,
	// GossipFanout to 2, and Horizon (needed by a positive Rate) to the
	// injection span Messages/Rate.
	Churn failure.ChurnSpec
	// Replication, when non-nil and enabled (K > 1 or a positive
	// CacheThreshold), replicates every lookup key through
	// replica.NewPlacement and routes each message to the nearest live
	// replica (route.RouteAny). Dead replicas degrade the set toward
	// plain greedy on the primary; delivered messages feed the
	// placement's popularity counters (at batch boundaries in snapshot
	// mode, per delivery in live mode), so cache-on-path stays
	// deterministic and worker-count independent.
	Replication *replica.Options
	// ReplicaSeed seeds the hash-spread placement; zero derives it from
	// the run seed, so a fixed (cfg, seed) still pins every replica.
	ReplicaSeed uint64
	// Telemetry, when non-nil, attaches the virtual-time observability
	// layer (internal/telemetry) to the engine run: window timeseries,
	// sampled message flights, and the sharded loop's scheduler
	// profile. The recorder only observes — results are byte-identical
	// with it nil or set — and a nil recorder costs nothing.
	Telemetry *telemetry.Recorder
}

func (c Config) withDefaults() Config {
	if c.Messages == 0 {
		c.Messages = 256
	}
	if c.Capacity == 0 {
		c.Capacity = 1
	}
	if c.Rate == 0 {
		c.Rate = 1
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.Shards == 0 {
		c.Shards = 1
	}
	if c.BatchSize == 0 {
		c.BatchSize = 32
	}
	if c.PIT {
		// Resolved only under PIT so the zero-value contract holds: a
		// config without PIT carries zero knobs through to the engine.
		if c.PITTimeout == 0 {
			c.PITTimeout = 64 / c.Capacity
		}
		if c.PITWaiters == 0 {
			c.PITWaiters = 16
		}
	}
	if c.Churn.Enabled() {
		// Same discipline as the PIT knobs: resolved only when churn is
		// on, so a churn-free config carries a zero spec to the engine.
		if c.Churn.ProbeTimeout == 0 {
			c.Churn.ProbeTimeout = 4 / c.Capacity
		}
		if c.Churn.GossipInterval == 0 {
			c.Churn.GossipInterval = 1 / c.Capacity
		}
		if c.Churn.GossipFanout == 0 {
			c.Churn.GossipFanout = 2
		}
		if c.Churn.Rate > 0 && c.Churn.Horizon == 0 {
			c.Churn.Horizon = float64(c.Messages) / c.Rate
		}
	}
	return c
}

// ResolvedPITTimeout reports the interest lifetime the configuration
// will actually run with, resolving the zero-value default — what the
// PIT experiments print when the caller left the knob unset.
func (c Config) ResolvedPITTimeout() float64 {
	return c.withDefaults().PITTimeout
}

// Validate rejects nonsensical configurations. It checks a resolved
// configuration: zero-valued fields mean "use the default" to Run, which
// resolves them before validating, so a zero Capacity or Rate here is an
// error, not a default.
func (c Config) Validate() error {
	if c.Messages < 0 {
		return fmt.Errorf("load: negative message count %d", c.Messages)
	}
	for name, v := range map[string]float64{
		"capacity": c.Capacity, "rate": c.Rate,
		"penalty": c.Penalty, "depth penalty": c.DepthPenalty,
	} {
		// NaN slips through ordered comparisons and an infinite rate or
		// capacity degenerates the virtual-time replay, so both are
		// configuration errors, not values to compute with.
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("load: %s %g is not finite", name, v)
		}
	}
	if c.Capacity <= 0 || c.Rate <= 0 {
		return fmt.Errorf("load: capacity %g and rate %g must be positive", c.Capacity, c.Rate)
	}
	if c.Penalty < 0 || c.DepthPenalty < 0 {
		return fmt.Errorf("load: congestion penalties %g/%g must be non-negative", c.Penalty, c.DepthPenalty)
	}
	if c.BatchSize < 0 {
		return fmt.Errorf("load: negative batch size %d", c.BatchSize)
	}
	if c.Shards < 0 {
		return fmt.Errorf("load: negative shard count %d", c.Shards)
	}
	if c.Aggregate && !c.Live {
		return fmt.Errorf("load: aggregation requires live mode (Config.Live)")
	}
	if c.PIT && !c.Live {
		return fmt.Errorf("load: pending-interest tables require live mode (Config.Live)")
	}
	if math.IsNaN(c.PITTimeout) || math.IsInf(c.PITTimeout, 0) || c.PITTimeout < 0 {
		return fmt.Errorf("load: PIT timeout %g must be finite and non-negative", c.PITTimeout)
	}
	if c.PITWaiters < 0 {
		return fmt.Errorf("load: negative PIT waiter bound %d", c.PITWaiters)
	}
	if !c.PIT && (c.PITTimeout != 0 || c.PITWaiters != 0) {
		return fmt.Errorf("load: PIT knobs (timeout %g, waiters %d) are only meaningful with Config.PIT",
			c.PITTimeout, c.PITWaiters)
	}
	if c.Churn.Enabled() {
		if !c.Live {
			return fmt.Errorf("load: churn requires live mode (Config.Live)")
		}
		if err := c.Churn.Validate(); err != nil {
			return err
		}
	}
	if c.Replication != nil {
		if err := c.Replication.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// Result reports one traffic run: routing outcomes (the familiar
// sim.SearchStats), the per-node load profile, and the queueing-delay
// picture of the virtual-time event loop.
type Result struct {
	// Workload names the generator that produced the traffic.
	Workload string
	// Arrival names the arrival model that timed the injections.
	Arrival string
	// Replication names the replica placement ("" when disabled).
	Replication string
	// Mode names the engine mode: "snapshot", "live", "live+aggregate",
	// or "live+pit".
	Mode string
	// Plan names the execution plan the engine resolved to
	// ("snapshot", "live-sequential", or "live-sharded") and PlanReason
	// the engine's pinned explanation — how a Shards request actually
	// ran (see engine.Config.Plan).
	Plan, PlanReason string
	// Search aggregates the underlying route results exactly as the
	// single-message experiments do.
	Search sim.SearchStats
	// Injected = Delivered + Failed always holds (the conservation
	// property the tests pin).
	Injected, Delivered, Failed int
	// Ledger is the engine's conservation ledger (all zero outside the
	// mode or churn that drives each counter). Aggregated lookups still
	// count as delivered or failed with their carrier.
	engine.Ledger
	// Loads counts message-hop services per grid point (index =
	// metric.Point; absent or untouched points hold 0).
	Loads []int
	// ServedBy counts, per grid point, the delivered messages that
	// point consumed — under replication, how the hot key's traffic
	// fanned out across its replicas (index = metric.Point).
	ServedBy []int
	// CachedKeys and CacheCopies report the popularity-triggered
	// cache placements made by the end of the run (zero without a
	// cache threshold).
	CachedKeys, CacheCopies int
	// MaxLoad is the hottest node's service count; MeanLoad averages
	// over the live nodes. Their ratio is the imbalance headline.
	MaxLoad  int
	MeanLoad float64
	// MaxQueueDepth is the deepest any node's FIFO got (including the
	// message in service).
	MaxQueueDepth int
	// Latency quantiles of delivered messages, in virtual ticks
	// (nearest-rank on the completion-time distribution). Zero when
	// nothing was delivered. Under live+pit a lookup completes at
	// answer receipt — the answer service at its origin — so these
	// include the response leg, not just the request's delivery.
	LatencyMean, LatencyP50, LatencyP95, LatencyP99 float64
	// Makespan is the virtual time at which the last service completed;
	// LastInject is the time of the final injection. Their difference
	// is how long the network needed to drain its backlog once
	// injections stopped.
	Makespan, LastInject float64
	// Throughput is delivered messages per virtual tick of Makespan —
	// the y-axis the saturation sweeps plot the knee on.
	Throughput float64
}

// MaxMeanRatio returns MaxLoad/MeanLoad, the load-imbalance headline
// (1 ≈ perfectly balanced). Zero when no load was charged.
func (r *Result) MaxMeanRatio() float64 {
	if r.MeanLoad == 0 {
		return 0
	}
	return float64(r.MaxLoad) / r.MeanLoad
}

// modeName names the engine mode a config selects. PIT supersedes
// Aggregate: with both set the run is live+pit.
func (c Config) modeName() string {
	return c.engineMode().String()
}

// engineMode maps the Live/Aggregate/PIT switches onto the engine's
// Mode enum.
func (c Config) engineMode() engine.Mode {
	switch {
	case c.Live && c.PIT:
		return engine.ModeLivePIT
	case c.Live && c.Aggregate:
		return engine.ModeLiveAggregate
	case c.Live:
		return engine.ModeLive
	default:
		return engine.ModeSnapshot
	}
}

// Run injects cfg.Messages lookups from gen into g and drives them
// through the discrete-event engine (internal/engine). See the package
// comment for the model; the run is deterministic in (g, gen, cfg,
// seed) and independent of cfg.Workers and cfg.Shards.
func Run(g *graph.Graph, gen Generator, cfg Config, seed uint64) (*Result, error) {
	p, err := prepare(g, gen, cfg, seed)
	if err != nil {
		return nil, err
	}
	return p.run(p.cfg.Arrival)
}

// prepared is the part of a run that does not depend on its arrival
// model, done once for every run made from it: the resolved and
// validated configuration, the bound workload's lookups and the replica
// seed; and the engine memory those runs reuse.
type prepared struct {
	g     *graph.Graph
	gen   Generator
	cfg   Config
	root  *rng.Source
	msgs  []engine.Message
	rseed uint64
	eng   engine.Runner
}

// prepare validates cfg, binds gen to g and draws the lookups.
func prepare(g *graph.Graph, gen Generator, cfg Config, seed uint64) (*prepared, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	root := rng.New(seed)
	if err := gen.Bind(g, root.Derive(0)); err != nil {
		return nil, err
	}

	// Draw every lookup pair up front from one sequential stream: the
	// workload is then fixed before any parallelism starts.
	pairSrc := root.Derive(1)
	msgs := make([]engine.Message, cfg.Messages)
	for i := range msgs {
		from, to, err := gen.Pair(pairSrc)
		if err != nil {
			return nil, err
		}
		msgs[i] = engine.Message{From: from, Key: to}
	}
	p := &prepared{g: g, gen: gen, cfg: cfg, root: root, msgs: msgs, rseed: cfg.ReplicaSeed}
	if p.rseed == 0 {
		p.rseed = root.Derive(3).Uint64()
	}
	return p, nil
}

// run drives the prepared lookups under arrival model arr (nil for
// Periodic(Rate)) on p's engine memory.
func (p *prepared) run(arr Arrival) (*Result, error) {
	g, gen, cfg, root := p.g, p.gen, p.cfg, p.root
	// Resolve the arrival model and draw its schedule from one
	// dedicated sequential stream, fixing the injection times (and, for
	// Poisson, their randomness) before any parallelism starts.
	if arr == nil {
		arr = Periodic(cfg.Rate)
	}
	// Config.Validate covers Rate but not a caller-supplied Arrival;
	// the built-in models know how to reject their own bad parameters
	// (a non-positive rate would prime Inf/NaN injection times).
	if v, ok := arr.(interface{ validate() error }); ok {
		if err := v.validate(); err != nil {
			return nil, err
		}
	}
	primed := arr.Prime(cfg.Messages, root.Derive(2))

	// Resolve the replica placement, if any. The placement is fed back
	// (cache observations) only from the engine's sequential
	// event loop and its batch boundaries — caching configurations are
	// ineligible for the sharded live loop, which consults static
	// placements read-only — so replica-aware runs keep the worker- and
	// shard-count independence contracts.
	var placement *replica.Placement
	if cfg.Replication != nil && cfg.Replication.Enabled() {
		var err error
		placement, err = replica.NewPlacement(g.Space(), *cfg.Replication, p.rseed)
		if err != nil {
			return nil, err
		}
	}

	// Expand the churn spec into its concrete event list from stream 4,
	// over the graph's pre-traffic alive set. A knobs-only spec (no
	// rate, kill, or flash) attaches the machinery with zero events —
	// byte-identical to a churn-free run (the differential-test
	// configuration) — and consumes no randomness beyond the unused
	// Derive.
	var churn engine.ChurnConfig
	if cfg.Churn.Enabled() {
		events, err := cfg.Churn.Generate(g, root.Derive(4))
		if err != nil {
			return nil, err
		}
		churn = engine.ChurnConfig{
			Events:         events,
			ProbeTimeout:   cfg.Churn.ProbeTimeout,
			GossipInterval: cfg.Churn.GossipInterval,
			GossipFanout:   cfg.Churn.GossipFanout,
			Repair:         cfg.Churn.Repair,
		}
	}

	if cfg.Telemetry != nil {
		cfg.Telemetry.Label(fmt.Sprintf("%s/%s/%s", gen.Name(), arr.Name(), cfg.modeName()))
	}
	out, err := p.eng.Run(g, p.msgs, engine.Schedule{Initial: primed, Completed: arr.Completed},
		engine.Config{
			Capacity:     cfg.Capacity,
			Workers:      cfg.Workers,
			Shards:       cfg.Shards,
			Route:        cfg.Route,
			Penalty:      cfg.Penalty,
			DepthPenalty: cfg.DepthPenalty,
			BatchSize:    cfg.BatchSize,
			Mode:         cfg.engineMode(),
			PITTimeout:   cfg.PITTimeout,
			PITWaiters:   cfg.PITWaiters,
			Churn:        churn,
			Placement:    placement,
			Telemetry:    cfg.Telemetry,
		}, root)
	if err != nil {
		return nil, err
	}
	if err := out.CheckLedgers(); err != nil {
		return nil, err
	}

	r := &Result{
		Workload:      gen.Name(),
		Arrival:       arr.Name(),
		Mode:          cfg.modeName(),
		Plan:          out.Plan.String(),
		PlanReason:    out.PlanReason,
		Injected:      cfg.Messages,
		Ledger:        out.Ledger,
		Loads:         out.Loads,
		ServedBy:      make([]int, g.Size()),
		MaxQueueDepth: out.MaxQueueDepth,
		Makespan:      out.Makespan,
		LastInject:    out.LastInject,
	}
	if placement != nil {
		r.Replication = placement.Name()
		r.CachedKeys = placement.CachedKeys()
		r.CacheCopies = placement.CachedCopies()
	}
	for _, res := range out.Results {
		r.Search.Record(res)
		if res.Delivered {
			r.Delivered++
			r.ServedBy[res.Target]++
		} else {
			r.Failed++
		}
	}
	alive := g.AliveCount()
	var total int
	for _, l := range out.Loads {
		if l > r.MaxLoad {
			r.MaxLoad = l
		}
		total += l
	}
	if alive > 0 {
		r.MeanLoad = float64(total) / float64(alive)
	}
	r.LatencyMean, r.LatencyP50, r.LatencyP95, r.LatencyP99 = latencySummary(out.Latencies)
	if out.Makespan > 0 {
		r.Throughput = float64(r.Delivered) / out.Makespan
	}
	return r, nil
}
