// Package load models the system under sustained traffic — the
// production question the paper's single-message experiments leave open:
// which nodes melt first, at what offered load does the network stop
// keeping up, and does fault-tolerant greedy routing also balance load?
//
// The subsystem has five parts:
//
//   - Workload generators (Generator): seeded, dimension-generic sources
//     of (from, to) lookup pairs — uniform traffic, Zipf-popular hotspot
//     keys, skewed source populations, and an adversarial single-target
//     flood.
//
//   - Arrival models (Arrival): when those lookups enter the network.
//     Periodic and Poisson are open-loop — every injection time is fixed
//     up front at offered rate λ, so a saturated network builds
//     unbounded queues. ClosedLoop models N clients with think time,
//     whose offered load self-limits as latency grows.
//
//   - The discrete-event engine (internal/engine, driven by Run): one
//     virtual-time event loop in which routing, FIFO queueing,
//     replication, and cache-on-path share a clock. Run injects
//     Messages lookups under the arrival model and reports per-node
//     load (hops serviced), max/mean load, peak queue depth,
//     p50/p95/p99 end-to-end latency — injection to delivery, or to
//     answer receipt at the origin when the response path is on —
//     makespan and delivered throughput alongside the ordinary
//     sim.SearchStats.
//
//   - Node dynamics (Config.Churn, a failure.ChurnSpec): background
//     crash/join churn, correlated regional kills, and flash-crowd
//     joins, expanded into a seeded event schedule and applied inside
//     the engine's event loop on the same virtual clock as the
//     traffic. Failures are detected by probe timeout, disseminated by
//     gossip membership (each send a service on the sender's FIFO),
//     and repaired by redrawing the §5 long-range links; in-flight
//     messages at a dying node strand and re-forward. Churn requires
//     Live — snapshot mode routes whole paths against a static graph —
//     and the Result churn ledger (Crashes through MembershipLag)
//     accounts exactly for every event, strand, and rumor.
//
//   - A saturation sweep (Sweep): repeated runs at stepped-then-bisected
//     load hunting the capacity knee — the largest offered load at which
//     queues still drain (delivered throughput tracks λ) and the p99
//     tail stays bounded. The sweep reports the whole
//     latency-vs-throughput curve (ext.saturation.knee prints it) plus
//     the knee, per routing policy and engine mode. It prepares once —
//     validates, binds the workload, draws the lookups and resolves the
//     replica seed — and runs every level on one engine.Runner, whose
//     memory each level empties and reuses; only the level's schedule,
//     replica placement, and the Loads and ServedBy its point keeps are
//     its own. Churn events would change the graph every later level
//     runs on, so a sweep refuses them (a knobs-only spec is allowed).
//
// # Snapshot vs live semantics
//
// With Config.Live off (the default), messages route in congestion-
// snapshot batches of Config.BatchSize and then flow through the
// queues — the classic route-then-replay pipeline, reproduced
// byte-for-byte by the engine's snapshot mode. The congestion feedback
// loops are batch-grained: Config.Penalty feeds routing the cumulative
// loads charged by earlier batches, Config.DepthPenalty the queue
// depths at the batch boundary (read in O(1) off the engine's own
// queues), and cache-on-path placements made during one batch serve
// the next. A promoted copy stays for the rest of the run. The
// staleness is the model: a real system gossips load information, it
// does not observe it instantaneously.
//
// With Config.Live on, there are no batches: each message advances
// hop-by-hop at its service completions (route.Walker), and every
// forwarding decision reads the load, queue depth, and replica
// placement of that instant — the paper's online routing model
// extended to congestion state. Config.Aggregate additionally
// coalesces same-key lookups that meet in a node's queue into one
// aggregated service, the NDN-style batching that breaks the flood
// knee past what replication alone buys (Result.Aggregated counts the
// coalesced lookups).
//
// Config.PIT instead turns on the pending-interest response path
// (engine.ModeLivePIT): every request service plants a pending
// interest at its node, later same-key lookups park on a pending
// interest anywhere in the network instead of forwarding
// (Result.Suppressed), and the answer retraces the reverse path
// through the same per-node FIFOs, multicasting to recorded waiters as
// it goes (Result.MulticastFanout releases, Result.PITExpired
// timeouts; the three counters balance exactly). Latencies and
// percentiles then measure to answer receipt, so PIT results are
// charged the full round trip — sweeps account for the protocol's
// fixed strand tail (one interest lifetime) when judging stability,
// see SweepResult.P99Bound. Config.PITTimeout and Config.PITWaiters
// bound an interest's lifetime and waiter list.
//
// Determinism: a run is a pure function of (graph, generator, Config
// minus Workers and Shards, seed). Snapshot mode parallelizes
// per-message path computation over Workers goroutines, but every
// message routes from its own derived rng stream and all schedules are
// drawn before routing starts; the live loop runs sequentially at
// Shards <= 1 and, for parallel-eligible configurations, partitions
// across Shards cores in conservative virtual-time windows at higher
// counts (see Config.Shards). Results are byte-identical for any
// Workers and Shards values — the property the regression suite pins
// for Run and Sweep alike, and the engine-vs-legacy equivalence
// property (prop_test.go) holds snapshot mode to the exact behaviour
// of the pre-engine pipeline.
package load
