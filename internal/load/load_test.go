package load

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/failure"
	"repro/internal/graph"
	"repro/internal/metric"
	"repro/internal/rng"
	"repro/internal/route"
)

func buildRing(t testing.TB, n, links int, seed uint64) *graph.Graph {
	t.Helper()
	ring, err := metric.NewRing(n)
	if err != nil {
		t.Fatal(err)
	}
	g, err := graph.BuildIdeal(ring, graph.PaperConfig(links), rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func buildTorus(t testing.TB, side, links int, seed uint64) *graph.Graph {
	t.Helper()
	torus, err := metric.NewTorus(side, 2)
	if err != nil {
		t.Fatal(err)
	}
	g, err := graph.BuildIdeal(torus, graph.PaperConfigFor(torus, links), rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func damagedTorus(t testing.TB, side, links int, seed uint64, failFrac float64) *graph.Graph {
	t.Helper()
	g := buildTorus(t, side, links, seed)
	if _, err := failure.FailNodesFraction(g, failFrac, rng.New(seed+1)); err != nil {
		t.Fatal(err)
	}
	return g
}

func TestConservation(t *testing.T) {
	// injected == delivered + failed must hold on healthy and damaged
	// networks, for every workload, in 1-D and 2-D.
	graphs := map[string]*graph.Graph{
		"ring-healthy": buildRing(t, 512, 9, 1),
		"torus":        buildTorus(t, 16, 4, 2),
	}
	damaged := buildRing(t, 512, 9, 3)
	if _, err := failure.FailNodesFraction(damaged, 0.4, rng.New(4)); err != nil {
		t.Fatal(err)
	}
	graphs["ring-damaged"] = damaged

	for gname, g := range graphs {
		for _, gen := range []Generator{Uniform(), Zipf(1.0), SkewedSources(1.2), Flood()} {
			r, err := Run(g, gen, Config{Messages: 200}, 5)
			if err != nil {
				t.Fatalf("%s/%s: %v", gname, gen.Name(), err)
			}
			if r.Injected != 200 || r.Delivered+r.Failed != r.Injected {
				t.Errorf("%s/%s: injected=%d delivered=%d failed=%d",
					gname, gen.Name(), r.Injected, r.Delivered, r.Failed)
			}
			if r.Search.Searches != r.Injected || r.Search.Delivered != r.Delivered {
				t.Errorf("%s/%s: SearchStats disagree with counters", gname, gen.Name())
			}
			var total int
			for _, l := range r.Loads {
				total += l
			}
			// Every delivered or failed search visits at least its
			// source; each visit is one service.
			if total < r.Injected {
				t.Errorf("%s/%s: %d services for %d messages", gname, gen.Name(), total, r.Injected)
			}
		}
	}
}

func TestDeterminismAcrossWorkers(t *testing.T) {
	g := buildRing(t, 1024, 10, 7)
	if _, err := failure.FailNodesFraction(g, 0.3, rng.New(8)); err != nil {
		t.Fatal(err)
	}
	for _, penalty := range []float64{0, 2} {
		var want *Result
		for _, workers := range []int{1, 2, 7, 16} {
			cfg := Config{
				Messages: 300,
				Workers:  workers,
				Penalty:  penalty,
				Route:    route.Options{DeadEnd: route.Backtrack},
			}
			r, err := Run(g, Zipf(1.0), cfg, 9)
			if err != nil {
				t.Fatal(err)
			}
			if want == nil {
				want = r
				continue
			}
			if !reflect.DeepEqual(want, r) {
				t.Errorf("penalty %g: workers=%d diverged from workers=1", penalty, workers)
			}
		}
	}
}

func TestFloodConcentratesLoad(t *testing.T) {
	g := buildRing(t, 1024, 10, 11)
	uni, err := Run(g, Uniform(), Config{Messages: 400}, 12)
	if err != nil {
		t.Fatal(err)
	}
	fl, err := Run(g, Flood(), Config{Messages: 400}, 12)
	if err != nil {
		t.Fatal(err)
	}
	if fl.MaxLoad <= uni.MaxLoad {
		t.Errorf("flood max load %d should exceed uniform %d", fl.MaxLoad, uni.MaxLoad)
	}
	// All 400 messages funnel through the target's physical
	// in-neighbourhood, so some last-hop forwarder must be far above
	// the uniform-traffic imbalance.
	if fl.MaxMeanRatio() <= 2*uni.MaxMeanRatio() {
		t.Errorf("flood imbalance %.2f should dwarf uniform %.2f",
			fl.MaxMeanRatio(), uni.MaxMeanRatio())
	}
	if fl.MaxQueueDepth <= uni.MaxQueueDepth {
		t.Errorf("flood queue depth %d should exceed uniform %d", fl.MaxQueueDepth, uni.MaxQueueDepth)
	}
}

func TestZipfSkewsLoad(t *testing.T) {
	g := buildTorus(t, 24, 5, 13)
	uni, err := Run(g, Uniform(), Config{Messages: 600}, 14)
	if err != nil {
		t.Fatal(err)
	}
	zipf, err := Run(g, Zipf(1.2), Config{Messages: 600}, 14)
	if err != nil {
		t.Fatal(err)
	}
	if zipf.MaxMeanRatio() <= uni.MaxMeanRatio() {
		t.Errorf("zipf imbalance %.2f should exceed uniform %.2f",
			zipf.MaxMeanRatio(), uni.MaxMeanRatio())
	}
}

func TestLoadAwareReducesMaxLoad(t *testing.T) {
	// The acceptance scenario: congestion-penalized greedy must cut the
	// hottest node's load versus plain greedy at a bounded mean-hop
	// overhead, on both the ring and the 2-D torus.
	cases := []struct {
		name string
		g    *graph.Graph
	}{
		{"ring", buildRing(t, 2048, 11, 15)},
		{"torus", buildTorus(t, 32, 6, 16)},
	}
	for _, tc := range cases {
		plain, err := Run(tc.g, Zipf(1.0), Config{Messages: 800}, 17)
		if err != nil {
			t.Fatal(err)
		}
		aware, err := Run(tc.g, Zipf(1.0), Config{Messages: 800, Penalty: 1}, 17)
		if err != nil {
			t.Fatal(err)
		}
		if aware.MaxLoad >= plain.MaxLoad {
			t.Errorf("%s: load-aware max load %d should beat plain %d",
				tc.name, aware.MaxLoad, plain.MaxLoad)
		}
		if aware.Delivered < plain.Delivered {
			t.Errorf("%s: load-aware delivered %d < plain %d",
				tc.name, aware.Delivered, plain.Delivered)
		}
		if aware.Search.MeanHops() > 1.5*plain.Search.MeanHops() {
			t.Errorf("%s: load-aware mean hops %.2f blew past plain %.2f",
				tc.name, aware.Search.MeanHops(), plain.Search.MeanHops())
		}
	}
}

func TestConfigValidation(t *testing.T) {
	g := buildRing(t, 64, 4, 18)
	bad := []Config{
		{Messages: -1},
		{Capacity: -0.5},
		{Rate: -1},
		{Penalty: -2},
		{DepthPenalty: -1},
		{Penalty: 1, BatchSize: -1},
		{Messages: 10, Shards: -3},
	}
	for i, cfg := range bad {
		if _, err := Run(g, Uniform(), cfg, 1); err == nil {
			t.Errorf("config %d should be rejected", i)
		}
	}
	// Validate checks a resolved configuration: zero capacity or rate
	// means "default" only to Run, which resolves before validating; a
	// direct Validate call must reject them along with negatives.
	for i, cfg := range []Config{
		{Messages: 10, Rate: 1},                 // zero capacity
		{Messages: 10, Capacity: 1},             // zero rate
		{Messages: 10, Capacity: -2, Rate: 1},   // negative capacity
		{Messages: 10, Capacity: 1, Rate: -0.5}, // negative rate
	} {
		if err := cfg.Validate(); err == nil {
			t.Errorf("Validate %d: zero/negative capacity or rate should be rejected", i)
		}
	}
	if err := (Config{Messages: 10, Capacity: 1, Rate: 1}).Validate(); err != nil {
		t.Errorf("resolved config rejected: %v", err)
	}
	// Run still treats zeroes as defaults.
	if _, err := Run(g, Uniform(), Config{Messages: 20}, 1); err != nil {
		t.Errorf("zero-valued Run config should use defaults: %v", err)
	}
}

// TestShardConfigValidation pins the Shards field's contract at the
// load layer: negatives are rejected, a shard count beyond the node
// population is rejected in live mode, and in snapshot mode any legal
// shard count is a documented no-op — same bytes, no error.
func TestShardConfigValidation(t *testing.T) {
	g := buildRing(t, 64, 4, 18)
	if _, err := Run(g, Uniform(), Config{Messages: 10, Shards: -1}, 1); err == nil {
		t.Error("negative shard count should be rejected")
	}
	if _, err := Run(g, Uniform(), Config{Messages: 10, Shards: 65, Live: true}, 1); err == nil {
		t.Error("live run with more shards than nodes should be rejected")
	}
	// Snapshot mode ignores Shards entirely: more shards than nodes is
	// legal, and results match the unsharded run byte for byte.
	base, err := Run(g, Uniform(), Config{Messages: 50}, 2)
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := Run(g, Uniform(), Config{Messages: 50, Shards: 65}, 2)
	if err != nil {
		t.Fatalf("snapshot run with Shards set should be a no-op, got: %v", err)
	}
	if !reflect.DeepEqual(base, sharded) {
		t.Error("snapshot results changed when Shards was set")
	}
}

func TestArrivalModels(t *testing.T) {
	g := buildRing(t, 256, 8, 30)
	for _, tc := range []struct {
		arr  Arrival
		name string
	}{
		{Periodic(2), "periodic(2)"},
		{Poisson(2), "poisson(2)"},
		{ClosedLoop(8, 1.5), "closed(8,1.5)"},
	} {
		r, err := Run(g, Uniform(), Config{Messages: 200, Arrival: tc.arr}, 31)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if r.Arrival != tc.name {
			t.Errorf("Arrival = %q, want %q", r.Arrival, tc.name)
		}
		if r.Delivered+r.Failed != r.Injected {
			t.Errorf("%s: conservation broken", tc.name)
		}
		if r.Makespan <= 0 || r.Throughput <= 0 {
			t.Errorf("%s: makespan %v / throughput %v should be positive", tc.name, r.Makespan, r.Throughput)
		}
	}
	// The default arrival is Periodic(Rate): byte-identical results.
	implicit, err := Run(g, Uniform(), Config{Messages: 200, Rate: 4}, 31)
	if err != nil {
		t.Fatal(err)
	}
	explicit, err := Run(g, Uniform(), Config{Messages: 200, Arrival: Periodic(4)}, 31)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(implicit, explicit) {
		t.Error("Config.Rate and explicit Periodic(Rate) diverged")
	}
	// NewArrival resolves CLI names and rejects junk.
	for _, name := range []string{"", "periodic", "poisson", "closed"} {
		if _, err := NewArrival(name, 1, 4, 0); err != nil {
			t.Errorf("NewArrival(%q): %v", name, err)
		}
	}
	if _, err := NewArrival("bogus", 1, 4, 0); err == nil {
		t.Error("unknown arrival model should error")
	}
	// Run must reject degenerate models that would prime Inf/NaN
	// injection schedules, even when constructed directly.
	for _, arr := range []Arrival{Periodic(0), Poisson(-1), ClosedLoop(0, 1), ClosedLoop(4, -1)} {
		if _, err := Run(g, Uniform(), Config{Messages: 20, Arrival: arr}, 1); err == nil {
			t.Errorf("Run accepted degenerate arrival %s", arr.Name())
		}
	}
	if _, err := NewArrival("poisson", -1, 4, 0); err == nil {
		t.Error("negative rate should error")
	}
	if _, err := NewArrival("closed", 1, 4, -2); err == nil {
		t.Error("negative think time should error")
	}
}

func TestClosedLoopLimitsConcurrency(t *testing.T) {
	// A closed loop of k clients can never have more than k messages in
	// flight, so no queue can be deeper than k, regardless of how slow
	// service is.
	g := buildRing(t, 256, 8, 32)
	const clients = 4
	r, err := Run(g, Uniform(), Config{
		Messages: 300,
		Capacity: 0.25, // slow servers: 4 ticks per hop
		Arrival:  ClosedLoop(clients, 0),
	}, 33)
	if err != nil {
		t.Fatal(err)
	}
	if r.MaxQueueDepth > clients {
		t.Errorf("queue depth %d exceeds the %d-client population", r.MaxQueueDepth, clients)
	}
	open, err := Run(g, Uniform(), Config{
		Messages: 300,
		Capacity: 0.25,
		Arrival:  Poisson(64),
	}, 33)
	if err != nil {
		t.Fatal(err)
	}
	if open.MaxQueueDepth <= clients {
		t.Errorf("open loop at high rate should overrun %d (got depth %d)", clients, open.MaxQueueDepth)
	}
}

func TestTooFewNodes(t *testing.T) {
	ring, err := metric.NewRing(8)
	if err != nil {
		t.Fatal(err)
	}
	g := graph.New(ring)
	for p := 1; p < 8; p++ {
		g.Fail(metric.Point(p))
	}
	if _, err := Run(g, Uniform(), Config{}, 1); err == nil {
		t.Error("single-node graph should fail Bind")
	}
}

func TestLoadHistogramCoversLoadedNodes(t *testing.T) {
	g := buildRing(t, 512, 8, 19)
	r, err := Run(g, Flood(), Config{Messages: 300}, 20)
	if err != nil {
		t.Fatal(err)
	}
	h := r.LoadHistogram()
	if h == nil {
		t.Fatal("nil histogram for loaded run")
	}
	var nodes int64
	for i := 0; i < h.Buckets(); i++ {
		nodes += h.Count(i)
	}
	loaded := 0
	for _, l := range r.Loads {
		if l > 0 {
			loaded++
		}
	}
	if nodes != int64(loaded) {
		t.Errorf("histogram covers %d nodes, want %d", nodes, loaded)
	}
}

func TestWorkloadNames(t *testing.T) {
	for _, tc := range []struct {
		flag string
		want string
	}{
		{"uniform", "uniform"},
		{"", "uniform"},
		{"zipf", "zipf(1)"},
		{"hotspot", "zipf(1)"},
		{"sources", "sources(1)"},
		{"flood", "flood"},
	} {
		gen, err := NewGenerator(tc.flag, 0)
		if err != nil {
			t.Fatal(err)
		}
		if gen.Name() != tc.want {
			t.Errorf("NewGenerator(%q).Name() = %q, want %q", tc.flag, gen.Name(), tc.want)
		}
	}
	if _, err := NewGenerator("bogus", 0); err == nil {
		t.Error("unknown workload should error")
	}
	if got := fmt.Sprintf("%s", Zipf(0.8).Name()); got != "zipf(0.8)" {
		t.Errorf("Zipf(0.8).Name() = %q", got)
	}
}
