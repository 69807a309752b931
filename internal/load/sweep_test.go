package load

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/alloctest"
	"repro/internal/failure"
	"repro/internal/replica"
	"repro/internal/route"
)

func sweepConfig(messages, workers int) SweepConfig {
	return SweepConfig{
		Config: Config{
			Messages: messages,
			Workers:  workers,
			Route:    route.Options{DeadEnd: route.Backtrack},
		},
		Model:      "poisson",
		Bisections: 4,
	}
}

func TestSweepFindsFiniteKnee(t *testing.T) {
	// The acceptance scenario: a seeded 1024-node ring under Zipf
	// traffic must saturate at a finite, positive offered rate.
	g := buildRing(t, 1024, 10, 21)
	res, err := Sweep(g, Zipf(1.0), sweepConfig(3000, 0), 22)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Saturated {
		t.Error("sweep never saturated; the knee is only a lower bound")
	}
	if res.Knee <= 0 || math.IsInf(res.Knee, 0) {
		t.Fatalf("knee = %v, want finite and positive", res.Knee)
	}
	if res.KneeThroughput <= 0 {
		t.Errorf("knee throughput = %v, want positive", res.KneeThroughput)
	}
	kp := res.KneePoint()
	if kp == nil {
		t.Fatal("no knee point recorded")
	}
	if kp.Result.LatencyP99 > res.P99Bound {
		t.Errorf("knee p99 %.2f violates bound %.2f", kp.Result.LatencyP99, res.P99Bound)
	}
	// Points ascend in load, and some point above the knee is unstable.
	unstableAbove := false
	for i, p := range res.Points {
		if i > 0 && p.Load <= res.Points[i-1].Load {
			t.Errorf("points not ascending at %d: %v after %v", i, p.Load, res.Points[i-1].Load)
		}
		if !p.Stable && p.Load > res.Knee {
			unstableAbove = true
		}
		if p.Stable && p.Load > res.Knee {
			t.Errorf("stable point %v above knee %v", p.Load, res.Knee)
		}
	}
	if !unstableAbove {
		t.Error("no unstable point above the knee")
	}
}

func TestSweepWorkerIndependence(t *testing.T) {
	g := buildRing(t, 512, 9, 23)
	var want *SweepResult
	for _, workers := range []int{1, 3, 8} {
		res, err := Sweep(g, Zipf(1.0), sweepConfig(1200, workers), 24)
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = res
			continue
		}
		if !reflect.DeepEqual(want, res) {
			t.Errorf("workers=%d sweep diverged from workers=1", workers)
		}
	}
}

func TestSweepClosedLoop(t *testing.T) {
	g := buildRing(t, 512, 9, 25)
	res, err := Sweep(g, Uniform(), SweepConfig{
		Config: Config{Messages: 300, Route: route.Options{DeadEnd: route.Backtrack}},
		Model:  "closed",
		Think:  2,
		Max:    1 << 10,
	}, 26)
	if err != nil {
		t.Fatal(err)
	}
	if res.Model != "closed" {
		t.Errorf("model = %q", res.Model)
	}
	for _, p := range res.Points {
		if p.Load != math.Round(p.Load) {
			t.Errorf("closed-loop load %v is not an integer client count", p.Load)
		}
		if p.Result.Injected != 300 {
			t.Errorf("closed-loop run injected %d, want 300", p.Result.Injected)
		}
	}
	if res.Knee < 1 {
		t.Errorf("closed-loop knee = %v, want >= 1 client", res.Knee)
	}
}

func TestSweepDepthAwareChangesRouting(t *testing.T) {
	// The depth-aware policy must actually feed the instantaneous-depth
	// signal into routing: under saturating load its paths (and hence
	// load profile) diverge from plain greedy's, while delivery stays
	// conservation-clean.
	g := damagedTorus(t, 32, 10, 27, 0.3)
	cfg := Config{
		Messages:     2000,
		Arrival:      Poisson(32),
		Route:        route.Options{DeadEnd: route.Backtrack},
		DepthPenalty: 1,
	}
	depth, err := Run(g, Zipf(1.0), cfg, 28)
	if err != nil {
		t.Fatal(err)
	}
	plain := cfg
	plain.DepthPenalty = 0
	greedy, err := Run(g, Zipf(1.0), plain, 28)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(depth.Loads, greedy.Loads) {
		t.Error("depth penalty did not change the load profile")
	}
	if depth.Delivered+depth.Failed != depth.Injected {
		t.Errorf("conservation broken: %d+%d != %d", depth.Delivered, depth.Failed, depth.Injected)
	}
	if depth.MaxQueueDepth >= greedy.MaxQueueDepth {
		t.Errorf("depth-aware peak queue %d should beat greedy %d under overload",
			depth.MaxQueueDepth, greedy.MaxQueueDepth)
	}
}

func TestSweepRejectsEmptyBracket(t *testing.T) {
	g := buildRing(t, 64, 4, 29)
	if _, err := Sweep(g, Uniform(), SweepConfig{Min: 8, Max: 2}, 30); err == nil {
		t.Error("inverted bracket should be rejected")
	}
}

// TestSweepPointsMatchFreshRuns is the differential test of a sweep's
// shared set-up and engine memory: every level it evaluates must equal a
// fresh Run at that level's load, field for field, whatever the
// previous level left in the memory it reuses; and no two levels may
// share a Loads or ServedBy array, which every SweepPoint keeps.
func TestSweepPointsMatchFreshRuns(t *testing.T) {
	g := damagedTorus(t, 24, 8, 31, 0.3)
	knobsOnly := failure.ChurnSpec{ProbeTimeout: 4, GossipInterval: 1, GossipFanout: 2}
	for _, tc := range []struct {
		name  string
		model string
		cfg   Config
	}{
		{"snapshot+penalty+replicas+cache", "poisson", Config{Penalty: 4,
			Replication: &replica.Options{K: 4, CacheThreshold: 16, CacheCopies: 8}}},
		{"snapshot+depth/closed", "closed", Config{DepthPenalty: 1}},
		{"live", "periodic", Config{Live: true}},
		{"live+pit+knobs-only-churn", "poisson", Config{Live: true, PIT: true, Churn: knobsOnly}},
	} {
		for _, workers := range []int{1, 2} {
			cfg := SweepConfig{Config: tc.cfg, Model: tc.model, Bisections: 3}
			cfg.Messages, cfg.Workers = 600, workers
			cfg.Route = route.Options{DeadEnd: route.Backtrack}
			res, err := Sweep(g, Flood(), cfg, 32)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", tc.name, workers, err)
			}
			if len(res.Points) < 3 {
				t.Fatalf("%s workers=%d: %d points, want a sweep of several levels", tc.name, workers, len(res.Points))
			}
			for i, p := range res.Points {
				run := cfg.Config
				switch tc.model {
				case "closed":
					run.Arrival = ClosedLoop(int(p.Load), 0)
				case "poisson":
					run.Arrival = Poisson(p.Load)
				default:
					run.Arrival = Periodic(p.Load)
				}
				want, err := Run(g, Flood(), run, 32)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(p.Result, want) {
					t.Errorf("%s workers=%d: level %g differs from a fresh run:\n got %+v\nwant %+v",
						tc.name, workers, p.Load, *p.Result, *want)
				}
				for _, q := range res.Points[:i] {
					if &q.Result.Loads[0] == &p.Result.Loads[0] || &q.Result.ServedBy[0] == &p.Result.ServedBy[0] {
						t.Errorf("%s workers=%d: levels %g and %g share a Loads or ServedBy array",
							tc.name, workers, q.Load, p.Load)
					}
				}
			}
		}
	}
}

// TestSweepRejectsChurnEvents: the engine applies churn events to the
// graph it runs on, and a sweep runs every level on one graph, so a
// spec that schedules any is refused before the graph is touched. A
// knobs-only spec, which attaches the membership machinery with no
// events, still sweeps.
func TestSweepRejectsChurnEvents(t *testing.T) {
	g := buildTorus(t, 16, 6, 41)
	sweep := func(spec failure.ChurnSpec) error {
		_, err := Sweep(g, Uniform(), SweepConfig{Model: "poisson", Bisections: 1,
			Config: Config{Messages: 200, Live: true, Churn: spec}}, 42)
		return err
	}
	for _, spec := range []failure.ChurnSpec{{Rate: 0.05}, {KillFrac: 0.1, KillAt: 2}, {FlashJoin: 4, FlashAt: 2}} {
		if err := sweep(spec); err == nil || !strings.Contains(err.Error(), "churn events") {
			t.Errorf("%+v: err = %v, want the sweep to refuse churn events", spec, err)
		}
		if g.AliveCount() != g.Size() {
			t.Fatalf("%+v: a refused sweep left %d of %d nodes alive", spec, g.AliveCount(), g.Size())
		}
	}
	if err := sweep(failure.ChurnSpec{ProbeTimeout: 4, GossipInterval: 1, GossipFanout: 2}); err != nil {
		t.Errorf("knobs-only churn: %v", err)
	}
}

// TestSweepAllocsPerLookup pins what a knee-shaped saturation sweep
// allocates — a 30 %-failed torus under flood, congestion penalty and
// cache-on-path replication, as ftrmark's knee_sweep runs it — per
// lookup routed over all its levels. A sweep draws its workload once
// and runs every level on one engine memory, so what is left is each
// level's own: its schedule, replica placement, and the Loads and
// ServedBy its Result keeps: about 84 bytes and 0.061 allocations a
// lookup here, against 369 and 0.104 when every level set up a fresh
// run. The bounds leave room for runtime and layout drift, not for a
// level that allocates its engine tables again.
func TestSweepAllocsPerLookup(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	g := damagedTorus(t, 32, 12, 43, 0.3)
	cfg := SweepConfig{Model: "poisson", Min: 0.5, Max: 0.5 * 4096, Config: Config{
		Messages: 1024, Workers: 1, Penalty: 4, Route: route.Options{DeadEnd: route.Backtrack},
		Replication: &replica.Options{K: 4, CacheThreshold: 16, CacheCopies: 8}}}
	sweep := func() *SweepResult {
		res, err := Sweep(g, Flood(), cfg, 44)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	sweep() // the graph's neighbour rows are built once, by the first run on it
	var res *SweepResult
	mallocs, total := alloctest.Measure(func() { res = sweep() })
	lookups := float64(len(res.Points) * cfg.Messages)
	bytes := float64(total) / lookups
	allocs := float64(mallocs) / lookups
	t.Logf("%d levels: %.1f bytes and %.3f allocations per lookup", len(res.Points), bytes, allocs)
	if bytes > 120 || allocs > 0.08 {
		t.Errorf("%.1f bytes and %.3f allocations per lookup, want at most 120 and 0.08", bytes, allocs)
	}
}
