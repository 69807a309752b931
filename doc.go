// Package repro is a from-scratch Go reproduction of "Fault-tolerant
// Routing in Peer-to-peer Systems" (Aspnes, Diamadi, Shah; PODC 2002).
//
// The library lives under internal/ (see internal/core for the facade),
// executables under cmd/ (ftrsim, ftrbench, ftrnode), runnable examples
// under examples/, and the per-table/figure benchmark harness in
// bench_test.go. README.md's Architecture table maps every layer to its
// package, and `ftrsim -list` is the experiment index: every paper
// artifact with the id that regenerates it.
//
// Beyond the paper's single-message reproduction, internal/load models
// sustained traffic: workload generators, a virtual-time queueing
// simulator over the overlay, and a congestion-penalized load-aware
// routing policy, surfaced as the ext.load.* experiments.
//
// internal/replica attacks the flood case those experiments expose:
// seeded hash-spread and antipodal placement plus popularity-triggered
// cache-on-path replicate a hot key k ways, and route.RouteAny routes
// each lookup to the nearest live replica — lifting the flood-knee
// throughput 3-4x on damaged networks (ext.replica.*,
// BENCH_replica.json). internal/proptest holds the whole pipeline to
// its invariants (greedy progress, endpoint integrity, worker-count
// determinism) over seeded random universes, alongside native fuzz
// targets in internal/metric and internal/load.
package repro
