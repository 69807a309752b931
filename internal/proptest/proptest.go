// Package proptest is the repository's property-based testing harness:
// seeded generators of random-but-reproducible universes — metric
// spaces, built overlay graphs, traffic workloads, replica target sets
// — plus the invariant checks the routing and traffic layers must
// uphold on every one of them:
//
//   - greedy progress: a forward greedy walk never increases the
//     distance to its target set (strict decrease per hop);
//   - endpoint integrity: a delivered search's path starts at the
//     source and ends at a member of the target set;
//   - replay determinism: a traffic run is byte-identical across
//     worker counts and live event-loop shard counts, in snapshot and
//     live engine modes alike;
//   - engine equivalence: the discrete-event engine in snapshot mode
//     reproduces the pre-engine route-then-replay pipeline (preserved
//     as an executable oracle in internal/load's tests) byte-for-byte,
//     and the engine's event heap pops in its strict total order
//     regardless of push order.
//
// Everything is driven by an explicit seed, so a failing case is
// reproduced by its (seed, iteration) pair alone — no corpus files.
// The TestProp* tests here and in packages route, load, and engine are
// re-run with -count=2 in CI to catch state leaking between runs.
package proptest

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/failure"
	"repro/internal/graph"
	"repro/internal/load"
	"repro/internal/metric"
	"repro/internal/rng"
	"repro/internal/route"
)

// Gen draws random-but-reproducible test universes from one seeded
// stream. Not safe for concurrent use.
type Gen struct {
	src *rng.Source
}

// New returns a generator seeded with seed.
func New(seed uint64) *Gen { return &Gen{src: rng.New(seed)} }

// Space draws a metric space: the paper's ring (n in [16, 512]), a 2-D
// torus (side in [4, 22]), or a 3-D torus (side in [3, 8]).
func (g *Gen) Space(t testing.TB) metric.Space {
	t.Helper()
	var (
		s   metric.Space
		err error
	)
	switch g.src.Intn(3) {
	case 0:
		s, err = metric.NewRing(16 + g.src.Intn(497))
	case 1:
		s, err = metric.NewTorus(4+g.src.Intn(19), 2)
	default:
		s, err = metric.NewTorus(3+g.src.Intn(6), 3)
	}
	if err != nil {
		t.Fatalf("proptest: space: %v", err)
	}
	return s
}

// Graph draws a built overlay over a random space: 2-8 long links per
// node at the dimension-harmonic exponent, with up to 40% of the nodes
// crashed (always leaving at least two alive).
func (g *Gen) Graph(t testing.TB) *graph.Graph {
	t.Helper()
	space := g.Space(t)
	links := 2 + g.src.Intn(7)
	gr, err := graph.BuildIdeal(space, graph.PaperConfigFor(space, links), g.src.Derive(1))
	if err != nil {
		t.Fatalf("proptest: graph: %v", err)
	}
	if frac := float64(g.src.Intn(5)) / 10; frac > 0 {
		if _, err := failure.FailNodesFraction(gr, frac, g.src.Derive(2)); err != nil {
			t.Fatalf("proptest: failures: %v", err)
		}
	}
	return gr
}

// Workload draws one of the four traffic generators, with a random
// skew for the Zipf-based ones.
func (g *Gen) Workload() load.Generator {
	skew := 0.5 + g.src.Float64()
	switch g.src.Intn(4) {
	case 0:
		return load.Uniform()
	case 1:
		return load.Zipf(skew)
	case 2:
		return load.SkewedSources(skew)
	default:
		return load.Flood()
	}
}

// AlivePoint draws a uniformly random live node of gr.
func (g *Gen) AlivePoint(t testing.TB, gr *graph.Graph) metric.Point {
	t.Helper()
	p, ok := gr.RandomAlive(g.src)
	if !ok {
		t.Fatal("proptest: graph has no live nodes")
	}
	return p
}

// Targets draws a replica-style target set of 1-5 live points
// (duplicates allowed — the router must ignore them).
func (g *Gen) Targets(t testing.TB, gr *graph.Graph) []metric.Point {
	t.Helper()
	n := 1 + g.src.Intn(5)
	out := make([]metric.Point, n)
	for i := range out {
		out[i] = g.AlivePoint(t, gr)
	}
	return out
}

// setDistance is the multi-target greedy objective: the metric
// distance to the closest live member of targets.
func setDistance(gr *graph.Graph, p metric.Point, targets []metric.Point) int {
	best := -1
	for _, tg := range targets {
		if !gr.Alive(tg) {
			continue
		}
		if d := gr.Space().Distance(p, tg); best < 0 || d < best {
			best = d
		}
	}
	return best
}

// CheckGreedyProgress verifies the core greedy invariant on a traced
// two-sided Terminate-policy result: every hop strictly decreases the
// metric distance to the (live members of the) target set. It is the
// termination argument of the paper's greedy rule, and the
// congestion-penalized and multi-target variants must preserve it hop
// for hop. (One-sided routing minimizes forward distance instead, so
// this checker does not apply to it; Backtrack and RandomReroute
// results contain backward moves by design.)
func CheckGreedyProgress(t testing.TB, gr *graph.Graph, targets []metric.Point, res route.Result) {
	t.Helper()
	if len(res.Path) == 0 {
		t.Fatal("proptest: CheckGreedyProgress needs a traced path (route.Options.TracePath)")
	}
	prev := setDistance(gr, res.Path[0], targets)
	for i, p := range res.Path[1:] {
		d := setDistance(gr, p, targets)
		if d >= prev {
			t.Errorf("hop %d: distance to targets %v went %d -> %d at %d (path %v)",
				i+1, targets, prev, d, p, res.Path)
			return
		}
		prev = d
	}
}

// CheckEndpoints verifies delivery bookkeeping: a delivered search's
// path starts at the source and ends at Result.Target, which must be a
// live member of the target set; a failed search must not name a
// target. It needs a traced path.
func CheckEndpoints(t testing.TB, gr *graph.Graph, from metric.Point, targets []metric.Point, res route.Result) {
	t.Helper()
	if len(res.Path) == 0 {
		t.Fatal("proptest: CheckEndpoints needs a traced path (route.Options.TracePath)")
	}
	if res.Path[0] != from {
		t.Errorf("path starts at %d, want source %d", res.Path[0], from)
	}
	if !res.Delivered {
		if res.Target != -1 {
			t.Errorf("failed search names target %d", res.Target)
		}
		return
	}
	last := res.Path[len(res.Path)-1]
	if last != res.Target {
		t.Errorf("delivered path ends at %d, Result.Target = %d", last, res.Target)
	}
	if !gr.Alive(res.Target) {
		t.Errorf("delivered to dead point %d", res.Target)
	}
	found := false
	for _, tg := range targets {
		if tg == res.Target {
			found = true
			break
		}
	}
	if !found {
		t.Errorf("delivered to %d, not a member of the target set %v", res.Target, targets)
	}
}

// CheckWorkerInvariance runs one traffic configuration at 1, 2 and 8
// workers and fails unless all three results — loads, latencies,
// search statistics, everything — are deeply equal. It returns the
// single-worker result for further assertions.
func CheckWorkerInvariance(t testing.TB, gr *graph.Graph, gen load.Generator, cfg load.Config, seed uint64) *load.Result {
	t.Helper()
	var want *load.Result
	for _, workers := range []int{1, 2, 8} {
		c := cfg
		c.Workers = workers
		got, err := load.Run(gr, gen, c, seed)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if want == nil {
			want = got
			continue
		}
		if !reflect.DeepEqual(want, got) {
			t.Errorf("workers=%d diverged from workers=1:\n%s", workers, diffSummary(want, got))
		}
	}
	return want
}

// CheckShardInvariance runs one traffic configuration at 1, 2, 4 and 7
// live event-loop shards and fails unless all four results — loads,
// latencies, search statistics, everything — are deeply equal. This is
// the sharded engine's contract: partitioning the live loop across
// cores is a wall-clock optimization, never a semantic one.
// Configurations outside the parallel-eligible subset (congestion
// penalties, caching, closed-loop aggregation) fall back to the
// sequential loop at every shard count, so the check holds trivially
// there while still pinning that the eligibility gate itself never
// disturbs results. It returns the single-shard result for further
// assertions.
func CheckShardInvariance(t testing.TB, gr *graph.Graph, gen load.Generator, cfg load.Config, seed uint64) *load.Result {
	t.Helper()
	var want *load.Result
	for _, shards := range []int{1, 2, 4, 7} {
		c := cfg
		c.Shards = shards
		got, err := load.Run(gr, gen, c, seed)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if want == nil {
			want = got
			continue
		}
		// The resolved execution plan is *supposed* to differ across
		// shard counts (one shard is the sequential plan by definition);
		// the invariance contract covers every simulation output.
		got.Plan, got.PlanReason = want.Plan, want.PlanReason
		if !reflect.DeepEqual(want, got) {
			t.Errorf("shards=%d diverged from shards=1:\n%s", shards, diffSummary(want, got))
		}
	}
	return want
}

// diffSummary names the fields that diverged, keeping failures
// readable without dumping two full load vectors.
func diffSummary(a, b *load.Result) string {
	av, bv := reflect.ValueOf(*a), reflect.ValueOf(*b)
	s := ""
	for i := 0; i < av.NumField(); i++ {
		if !reflect.DeepEqual(av.Field(i).Interface(), bv.Field(i).Interface()) {
			s += fmt.Sprintf("  field %s differs\n", av.Type().Field(i).Name)
		}
	}
	if s == "" {
		s = "  (no field-level diff?)"
	}
	return s
}
