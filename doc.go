// Package repro is a from-scratch Go reproduction of "Fault-tolerant
// Routing in Peer-to-peer Systems" (Aspnes, Diamadi, Shah; PODC 2002).
//
// The library lives under internal/, executables under cmd/ (ftrsim,
// ftrbench), runnable examples in example_test.go, and the
// per-table/figure benchmark harness in bench_test.go. A network is
// built the way every experiment builds it: a metric space
// (internal/metric), graph.BuildIdeal with graph.PaperConfigFor, or the
// §5 heuristic in internal/construct; routed by route.New, damaged by
// internal/failure. Example_quickstart runs those calls, and README.md's
// Quickstart quotes it. README.md's Architecture table maps every layer
// to its package, and `ftrsim -list` is the experiment index: every
// paper artifact with the id that regenerates it.
//
// Beyond the paper's single-message reproduction, internal/load models
// sustained traffic: workload generators, a virtual-time queueing
// simulator on internal/graph and internal/engine, and a
// congestion-penalized load-aware routing policy, surfaced as
// ext.load.policy and the ext.saturation.* sweeps.
//
// internal/replica attacks the flood case those experiments expose:
// seeded hash-spread and antipodal placement plus popularity-triggered
// cache-on-path replicate a hot key k ways, and route.RouteAny routes
// each lookup to the nearest live replica — lifting the flood-knee
// throughput 3-4x on damaged networks (ext.replica.*,
// BENCH_replica.json). internal/proptest holds the whole pipeline to
// its invariants (greedy progress, endpoint integrity, worker-count
// determinism) over seeded random universes, alongside native fuzz
// targets in internal/metric, internal/graph, internal/rng,
// internal/engine, internal/failure, internal/load and internal/sim.
package repro
