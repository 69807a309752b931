// Package engine is the discrete-event core of the traffic subsystem:
// one virtual-time event loop in which routing, queueing, replication,
// and caching share a clock. It folds the pipeline's historical
// route-then-replay split — compute every path against a frozen
// congestion snapshot, then replay hops through FIFO queues — into a
// single simulation, so forwarding decisions can read *live* state.
//
// # The event loop
//
// There is one event type: "message m reaches its idx-th visited node
// at time t". Events are processed in the strict total order
// (time, msg, idx); each event parks the message in the node's FIFO,
// serves it for 1/Capacity ticks once the server frees up, and decides
// what happens at the service:
//
//	          ┌────────────────────────────────────────────────┐
//	          │                 event heap                      │
//	          │        pop min (time, msg, idx)                 │
//	          └───────────────┬────────────────────────────────┘
//	                          ▼
//	          node FIFO: wait ≤ busyUntil, serve 1/Capacity
//	                          │ charge load, update depth
//	                          ▼
//	    snapshot mode                     live mode
//	next := path[idx+1]          next := Walker.Step()   ← reads live
//	(path precomputed per        (decision made now:       load, depth,
//	 congestion batch)            Penalty/DepthPenalty     replicas
//	                              over live queues)
//	                          │
//	          ┌───────────────┴───────────────┐
//	          ▼                               ▼
//	 push (finish, msg, idx+1)        message completes:
//	                                  latency, cache Observe,
//	                                  closed-loop injection
//
// # Snapshot mode (Config.Mode = ModeSnapshot)
//
// Messages route in batches of Config.BatchSize against a congestion
// signal frozen at the batch boundary, exactly as the pre-engine
// pipeline did — byte-for-byte: the per-message rng streams, the
// batch cadence, the queue mechanics and the tie-breaking all match,
// so the seeded goldens pinned before the engine existed still pass,
// for any worker count. What changed is the cost of the
// instantaneous-depth probe (Config.DepthPenalty): the engine advances
// its own loop to the batch's first injection and reads each node's
// depth off the live queue in O(1) amortized, where the old pipeline
// re-replayed the whole routed prefix every batch — O(n²/batch) heap
// work. (Closed-loop schedules, whose later injections are not yet
// known at the boundary, still replay the prefix in a scratch loop to
// keep the historical estimate bit-exact.)
//
// # Live mode (Config.Mode = ModeLive and its variants)
//
// Every forwarding decision happens at the service that forwards the
// message, through the resumable route.Walker: the congestion penalty
// reads the load charged so far, the depth penalty reads the
// candidate's queue depth at the decision instant, and replica targets
// and cache-on-path placements are consulted per injection and per
// delivery instead of per batch. This is the paper's online model —
// each node forwards on what it can observe locally at forwarding time
// — extended to congestion state.
//
// Under ModeLiveAggregate, same-key lookups that meet in a node's
// queue coalesce: a lookup arriving while another lookup for the same
// key is queued or in service there rides along — it occupies no
// queue anywhere downstream and completes the instant its carrier
// completes. Under a hot-key flood this collapses the duplicate
// service load on the victim's in-neighbourhood, which is what moves
// the flood knee past what replication alone buys.
//
// Config.Mode selects exactly one of the four disciplines
// (ModeSnapshot, ModeLive, ModeLiveAggregate, ModeLivePIT), and
// Config.Plan reports — ahead of Run — how a configuration will be
// driven and the pinned reason string.
//
// # Response path (ModeLivePIT)
//
// Under ModeLivePIT (live mode's third variant), a delivered lookup
// is not the end of the story: the answer travels back. Every request
// service plants a pending interest for the message's key at the
// serving node, and the lifecycle of a lookup becomes:
//
//	      request leg                       answer leg
//	inject ─► hop ─► hop ─► deliver ─► answer retraces the visited
//	    │serve: plant interest │       path in reverse, hop by hop,
//	    │at each node, FIFO as │       through the same per-node
//	    │usual                 │       FIFOs; latency is measured to
//	    │                      │       answer receipt at the origin
//	    ▼                      ▼
//	a later same-key lookup    each answer service consumes the
//	reaching any node with a   node's interest entry and multicasts
//	pending interest parks     to its waiters: a released waiter
//	there (network-wide        forks its own answer leg from the
//	suppression): it occupies  release point back down its own
//	no queue and spawns no     partial path to its origin
//	events while parked
//
// Each interest entry is bounded: at most Config.PITWaiters lookups
// park on it (later arrivals forward normally), and a parked lookup
// waits at most Config.PITTimeout virtual ticks — an interest timeout
// (a heap event with negative idx; see pit.go) re-forwards the waiter
// from where it parked, and a lookup whose wait has expired once is
// never suppressed again, so the protocol adds at most one interest
// lifetime to any lookup's latency. The suppression ledger balances
// exactly: Suppressed = MulticastFanout + PITExpired. Under a hot-key
// flood, suppression collapses duplicate work network-wide — not just
// per queue as aggregation does — at the price of charging every
// delivery its answer's return trip.
//
// # One live loop, two drivers (Config.Shards)
//
// The live modes have one set of event handlers (shard.process and the
// PIT discipline in pit.go) running on *owners*: an owner is a
// contiguous region of the node set (shardOf), the heap of events
// addressed to it, and its slice of every per-node table. Pending
// injections wait in one (time, msg)-ordered heap and enter through one
// admission function. What differs between execution plans is only the
// driver — who pops which event when — and what becomes of the side
// effects whose order is globally visible (completions, aggregation
// merges, churn strand parks), which every handler hands to
// shard.effect:
//
//   - PlanLiveSequential: one owner holds every node. The driver pops
//     the next thing in global (time, msg, idx) order — churn op,
//     injection, or event — and each effect settles at the pop that
//     caused it (runner.settle). No windows, no deferral, no hand-off.
//     Because admission happens in event order too, this driver serves
//     the configurations whose forwarding decisions or admissions read
//     global mutable state: congestion penalties, depth probes, cache
//     churn, closed-loop aggregation, fast-probe churn (Config.Plan
//     names the reason).
//   - PlanLiveSharded: k owners advance together through virtual-time
//     windows bounded by the safe horizon W + 1/Capacity — conservative
//     parallel discrete-event simulation with the service time as
//     lookahead, since any event at t ≥ W spawns its successor no
//     earlier than t + 1/Capacity.
//
// One window of the k-owner driver:
//
//	        W = min over shards (and pending injections)
//	                       │
//	                       ▼
//	  admit: injections with time < W + 1/Capacity,
//	         on one goroutine in (time, msg) order
//	                       │
//	                       ▼
//	┌─ shard 0 ─┐   ┌─ shard 1 ─┐   ┌─ shard k ─┐
//	│ drain own │   │ drain own │…  │ drain own │   (parallel:
//	│ heap to   │   │ heap to   │   │ heap to   │    own nodes'
//	│ horizon   │   │ horizon   │   │ horizon   │    queues only)
//	└─────┬─────┘   └─────┬─────┘   └─────┬─────┘
//	      │   outboxes: cross-shard hops  │
//	      │   done-records: effects       │
//	      └───────────────┬───────────────┘
//	                       ▼
//	  barrier: merge outboxes, then settle the recorded
//	           effects in (time, msg, idx) order
//	                       │
//	                       ▼  next window
//
// Cross-shard forwards buffer in per-destination outboxes and are
// pushed at the barrier; effects are recorded during the parallel drain
// and settled on one goroutine, sorted into the global event order, by
// the same runner.settle the one-owner driver calls inline — so every
// observable byte (loads, latencies in completion order, aggregation
// bookkeeping, error choice) is the same under both drivers.
//
// Churn rides the same window machinery by becoming part of the
// barrier: the churn schedule is materialized before the run, so each
// window's horizon is clipped at the next churn-op instant and the
// membership mutation applies between drains, where one goroutine owns
// everything:
//
//	  churn ops due at the window start W apply on one goroutine
//	  (crash/join, link redraws, rumor rounds, strand resumes)
//	                       │
//	                       ▼
//	  horizon = min(W + 1/Capacity, next churn-op instant)
//	                       │
//	                       ▼
//	┌─ shard 0 ─┐   ┌─ shard 1 ─┐   ┌─ shard k ─┐   graph and
//	│ drain to  │   │ drain to  │…  │ drain to  │   membership
//	│ horizon   │   │ horizon   │   │ horizon   │   frozen
//	└─────┬─────┘   └─────┬─────┘   └─────┬─────┘
//	      │  arrivals at dead nodes defer │
//	      │  as strand records            │
//	      └───────────────┬───────────────┘
//	                       ▼
//	  barrier: settle completions and strand parks in
//	           (time, msg, idx) order — op seq numbers
//	           assigned exactly as under one owner
//	                       │
//	                       ▼  next window
//
// Gossip sends and rumor-round events route to the owning shard's
// heap, and a strand's probe-timeout resume lands at or beyond the
// horizon because eligibility requires ProbeTimeout ≥ 1/Capacity
// (Config.Plan; faster probes run under one owner, PlanReasonChurn).
//
// # Node dynamics (Config.Churn)
//
// With Config.Churn enabled (live mode only), nodes crash and join
// *during* the run: a failure.ChurnSpec expands into a timestamped
// schedule whose events share the virtual clock with the traffic. The
// churn op queue — schedule events, probe-timeout detections, gossip
// rounds, stranded-message resumptions — drains interleaved with the
// event heap, churn ops first at equal instants, so a message arriving
// at t sees the world as of t. A crash is die-after-commit: the
// service the node already committed to completes, every later arrival
// strands, waits one ProbeTimeout, and re-forwards from the dead node.
// Repair is gossip membership, not an oracle: neighbours detect the
// event when their probes go unanswered, rumors push to GossipFanout
// random alive peers every GossipInterval (each transmission one FIFO
// service at the sender, so dissemination competes with traffic), and
// a node redraws its long links into a dead node only once it has
// *learned* of the crash. A join revives the node, redraws its §5
// long-range links, and bootstraps its view from alive neighbours.
// The engine owns no graph search: a redrawn link resolves through
// graph.NearestAlive, the alive-filtered sibling of NearestExisting
// (one search, two flag masks), and a crash's probe successors are
// graph.AliveNeighbor, ShortNeighbor's sibling likewise. The retry
// discipline of the draw is the engine's own (churnState.drawLink).
// Churn runs shard like any other live run — mutations apply at
// window barriers, windows clip at churn-op instants (see the diagram
// above) — as long as ProbeTimeout covers the one-service-time
// lookahead; see churn.go for the full mechanics and internal/failure
// for the schedule model.
//
// # What a lookup allocates
//
// Nothing of its own, in steady state. A live run holds nearly every
// lookup in flight at once (an open-loop schedule injects faster than
// the network drains) and reports every traced path, so there is
// nothing for a pool to recycle; instead the per-message objects are
// carved from per-run slabs:
//
//   - walkers come from a route.Arena, 256 at a time: the Walker
//     structs, their 16-point paths and 16-entry tried stacks, and
//     their history frames are three slabs per chunk, carved by
//     three-index slices. The aliasing rule is the arena's: a buffer's
//     capacity ends where the next walker's share begins, so a walk that
//     outgrows its share reallocates privately. Admission (sequential
//     under both drivers) is the only code that carves; owners then Step
//     walkers of one chunk concurrently, each touching its own shares
//     only, and Outcome.Results[i].Path stays valid and unshared after
//     Run returns;
//   - message i's rng stream 16+i is derived into slot i of one
//     []rng.Source (Source.DeriveInto);
//   - every node's queue starts on its own four slots of one []float64
//     and is a ring, so it allocates only if a fifth message is ever in
//     the system there at once;
//   - Outcome.Latencies is sized for every message up front.
//
// What is left is amortized growth — a path past 16 hops, a queue past
// four messages, the heaps — and the per-run tables: 0.13 allocations
// per message on ftrmark's live_seq, which TestLiveRunAllocsPerMessage
// guards from tier-1.
//
// The tables only ModeLivePIT and churn runs touch are flat as well:
//
//   - a pending interest is a slot of its owner's slab (shard.pitSlab,
//     found through shard.pit), recycled with its waiter list's capacity
//     when the answer consumes it, so the slab is as long as the owner's
//     peak of concurrently pending interests, not the run's request
//     services (pit.go, "Storage");
//   - who has heard which rumor is one node-major bitset for the run
//     (churnState.knows), a bit per pending rumor, the column recycled
//     when the rumor retires;
//   - a node's hot list is carved from per-run chunks
//     (churnState.arena), sized on its first entry for every rumor
//     pending then.
//
// 0.53 allocations per message on ftrmark's churn_pit (6.51 with one
// heap object per interest, per hot-list doubling and per rumor), 0.33
// of them queues growing past four slots under the Zipf hot spots;
// TestChurnPITRunAllocsPerMessage guards it. ROADMAP item 5 has the
// profiles.
//
// Determinism: every mode is a pure function of (graph, messages,
// schedule, config, root source). Snapshot mode parallelizes path
// computation but keys every message to its own derived rng stream.
// The live loop's handlers see the same state in the same per-node
// order under either driver, and everything order-sensitive across
// nodes goes through runner.settle in global event order — inline with
// one owner, at the barrier with several. Results are byte-identical
// for every Config.Workers and Config.Shards value; the shard-invariance
// tests compare the two drivers, and the goldens in internal/regress,
// the standalone replay specification and TestLiveMatchesSnapshotPlain
// pin the handler bodies themselves.
//
// Observability: a telemetry.Recorder (Config.Telemetry) hooks the
// loops at their single-goroutine choke points — injection admission,
// completion/merge settlement, and cache-churn polling run on one
// goroutine under every plan — plus the per-event service, hop and PIT
// records, which the live handlers write through their owner's
// telemetry.View (one writer each, folded at EndRun) and the windowed
// driver profiles with wall-clock drain/wait splits. The recorder
// never feeds back into routing, consumes no simulation randomness,
// and keys its window timeseries to virtual time, so outcomes and the
// virtual-time telemetry stream are byte-identical at every shard
// count; only the wall-clock scheduler profile varies. A nil recorder
// reduces every hook site to one predictable branch — the hot-path
// alloc tests pin that disabled cost at zero.
package engine
