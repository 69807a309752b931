package load_test

// The property harness (internal/proptest) retrofitted onto the
// traffic pipeline: random graphs and workloads, the
// byte-identical-across-workers replay contract, and the engine
// equivalence oracle — the engine's snapshot mode against the
// preserved pre-engine pipeline (legacy_test.go). Runs under the CI
// `go test -run Prop -count=2` determinism step.

import (
	"reflect"
	"testing"

	"repro/internal/load"
	"repro/internal/proptest"
	"repro/internal/replica"
	"repro/internal/route"
)

func TestPropLoadWorkerInvariance(t *testing.T) {
	for iter := 0; iter < 10; iter++ {
		gen := proptest.New(uint64(700 + iter))
		g := gen.Graph(t)
		wl := gen.Workload()
		cfg := load.Config{
			Messages: 150,
			Penalty:  float64(iter % 2),
			Route:    route.Options{DeadEnd: route.Backtrack},
		}
		res := proptest.CheckWorkerInvariance(t, g, wl, cfg, uint64(800+iter))
		if t.Failed() {
			t.Fatalf("iter %d failed (seed %d, workload %s)", iter, 700+iter, wl.Name())
		}
		if res.Injected != res.Delivered+res.Failed {
			t.Fatalf("iter %d: conservation broke", iter)
		}
	}
}

// TestPropEngineMatchesLegacyPipeline is the refactor's acceptance
// property: on random universes — every workload, congestion policy,
// batching cadence, arrival model, and replication mix — the engine in
// snapshot mode must reproduce the pre-engine route-then-replay
// pipeline byte-for-byte, including the quadratic prefix-replay depth
// probes it replaced with frontier lookups.
func TestPropEngineMatchesLegacyPipeline(t *testing.T) {
	for iter := 0; iter < 14; iter++ {
		gen := proptest.New(uint64(8100 + iter))
		g := gen.Graph(t)
		wl := gen.Workload()
		cfg := load.Config{
			Messages: 180,
			Route:    route.Options{DeadEnd: route.Backtrack},
		}
		switch iter % 4 {
		case 1:
			cfg.Penalty = 1
		case 2:
			cfg.DepthPenalty = 1
			cfg.BatchSize = 16
		case 3:
			cfg.Penalty = 0.5
			cfg.DepthPenalty = 2
			cfg.BatchSize = 48
		}
		switch iter % 3 {
		case 1:
			cfg.Arrival = load.Poisson(4)
		case 2:
			cfg.Arrival = load.ClosedLoop(6, 0.5)
		}
		switch iter % 5 {
		case 1:
			cfg.Replication = &replica.Options{K: 3}
		case 2:
			cfg.Replication = &replica.Options{K: 2, CacheThreshold: 8, CacheCopies: 2}
		}
		seed := uint64(8200 + iter)
		want, err := legacyRun(g, wl, cfg, seed)
		if err != nil {
			t.Fatalf("iter %d: legacy: %v", iter, err)
		}
		// Reusing wl across both runs is safe because every
		// Generator.Bind fully resets its state from the seed — the
		// second Bind redraws the identical workload.
		got, err := load.Run(g, wl, cfg, seed)
		if err != nil {
			t.Fatalf("iter %d: engine: %v", iter, err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("iter %d (seed %d, workload %s, cfg %+v): engine diverged from legacy pipeline",
				iter, 8100+iter, wl.Name(), cfg)
		}
	}
}

// TestPropLiveWorkerInvariance pins the live modes' determinism
// contract: the live loop takes its parallelism from Shards, never
// from Workers, so Workers must not change a byte, with and without
// aggregation, penalties, and replication.
func TestPropLiveWorkerInvariance(t *testing.T) {
	for iter := 0; iter < 8; iter++ {
		gen := proptest.New(uint64(8300 + iter))
		g := gen.Graph(t)
		wl := gen.Workload()
		cfg := load.Config{
			Messages: 150,
			Live:     true,
			Route:    route.Options{DeadEnd: route.Backtrack},
		}
		if iter%2 == 1 {
			cfg.Aggregate = true
		}
		if iter%3 == 1 {
			cfg.Penalty = 1
			cfg.DepthPenalty = 1
		}
		if iter%4 == 2 {
			cfg.Replication = &replica.Options{K: 2, CacheThreshold: 10}
		}
		res := proptest.CheckWorkerInvariance(t, g, wl, cfg, uint64(8400+iter))
		if t.Failed() {
			t.Fatalf("iter %d failed (seed %d, workload %s)", iter, 8300+iter, wl.Name())
		}
		if res.Injected != res.Delivered+res.Failed {
			t.Fatalf("iter %d: conservation broke", iter)
		}
	}
}

// TestPropLivePlainMatchesSnapshot pins the modes' structural
// agreement: without congestion feedback, caching, or aggregation the
// per-hop decisions are identical, so live and snapshot runs must be
// byte-identical (only the mode label differs).
func TestPropLivePlainMatchesSnapshot(t *testing.T) {
	for iter := 0; iter < 8; iter++ {
		gen := proptest.New(uint64(8500 + iter))
		g := gen.Graph(t)
		wl := gen.Workload()
		cfg := load.Config{
			Messages: 150,
			Route:    route.Options{DeadEnd: route.Backtrack},
		}
		if iter%2 == 1 {
			cfg.Arrival = load.Poisson(3)
		}
		if iter%4 == 2 {
			cfg.Replication = &replica.Options{K: 3}
		}
		seed := uint64(8600 + iter)
		snap, err := load.Run(g, wl, cfg, seed)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Live = true
		live, err := load.Run(g, wl, cfg, seed)
		if err != nil {
			t.Fatal(err)
		}
		// The mode label and the resolved plan are the only fields
		// allowed to differ.
		live.Mode = snap.Mode
		live.Plan, live.PlanReason = snap.Plan, snap.PlanReason
		if !reflect.DeepEqual(snap, live) {
			t.Fatalf("iter %d (seed %d, workload %s): plain live diverged from snapshot",
				iter, 8500+iter, wl.Name())
		}
	}
}

func TestPropArrivalModelsWorkerInvariance(t *testing.T) {
	for iter := 0; iter < 6; iter++ {
		gen := proptest.New(uint64(900 + iter))
		g := gen.Graph(t)
		cfg := load.Config{Messages: 150, Route: route.Options{DeadEnd: route.Backtrack}}
		switch iter % 3 {
		case 0:
			cfg.Arrival = load.Poisson(2)
		case 1:
			cfg.Arrival = load.ClosedLoop(8, 1)
		default:
			cfg.Arrival = load.Periodic(4)
		}
		proptest.CheckWorkerInvariance(t, g, gen.Workload(), cfg, uint64(950+iter))
		if t.Failed() {
			t.Fatalf("iter %d failed (seed %d)", iter, 900+iter)
		}
	}
}
