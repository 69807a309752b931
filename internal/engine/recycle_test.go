package engine

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/metric"
	"repro/internal/replica"
	"repro/internal/rng"
	"repro/internal/route"
)

// peakInFlight returns the most lookups of a run in flight at one
// instant: from their injection to their completion, a completion
// counted before an injection at the same instant.
func peakInFlight(r *runner) int {
	type edge struct {
		at float64
		d  int
	}
	var edges []edge
	for m, at := range r.inject {
		if at >= 0 && r.doneAt[m] >= 0 {
			edges = append(edges, edge{at, 1}, edge{r.doneAt[m], -1})
		}
	}
	slices.SortFunc(edges, func(a, b edge) int {
		if a.at != b.at {
			if a.at < b.at {
				return -1
			}
			return 1
		}
		return a.d - b.d
	})
	n, peak := 0, 0
	for _, e := range edges {
		n += e.d
		peak = max(peak, n)
	}
	return peak
}

// carvedFor returns how many walkers a fresh arena carves for n walkers
// in flight at once: the first total of its chunk growth that covers n.
func carvedFor(t *testing.T, g *graph.Graph, n int) int {
	t.Helper()
	a := route.New(g, route.Options{}).NewArena()
	var alive []metric.Point
	for p := metric.Point(0); len(alive) < 2; p++ {
		if g.Alive(p) {
			alive = append(alive, p)
		}
	}
	for i := 0; i < n; i++ {
		if _, err := a.Walker(nil, alive[0], alive[1:]); err != nil {
			t.Fatal(err)
		}
	}
	return a.Carved()
}

// checkKeptPaths fails unless every traced result of out keeps a path of
// its own: one point per hop and the origin, at cap == len, sharing no
// point with another result's. Each path is stamped with its message's
// index in turn; a path that overlaps another reads a foreign stamp.
func checkKeptPaths(t *testing.T, name string, out *Outcome) {
	t.Helper()
	kept := make([][]metric.Point, len(out.Results))
	for i, res := range out.Results {
		if res.Path == nil {
			continue
		}
		if len(res.Path) != res.Hops+1 || cap(res.Path) != len(res.Path) {
			t.Fatalf("%s: lookup %d: %d hops, path len %d cap %d", name, i, res.Hops, len(res.Path), cap(res.Path))
		}
		kept[i] = slices.Clone(res.Path)
		for k := range res.Path {
			res.Path[k] = metric.Point(i)
		}
	}
	for i, res := range out.Results {
		for _, p := range res.Path {
			if p != metric.Point(i) {
				t.Fatalf("%s: lookup %d's path shares a point with lookup %d's", name, i, p)
			}
		}
		copy(res.Path, kept[i])
	}
}

// TestArenaCarvesPeakInFlight pins walker recycling structurally. A live
// run's arena takes each lookup's walker back at its completion, so on
// churnPITScenario — Zipf lookups with PIT answers under churn, at one
// owner and at two, where completions settle at window barriers — it
// carves no more walkers than a fresh arena carves for the run's peak of
// lookups in flight (the first total of its chunk growth that covers
// the peak): a fraction of the run's messages. A snapshot run with
// cache-on-path routes batches of 32 on one arena and takes each batch's
// walkers back before the next, so the arena carves exactly 32. Either
// way every traced Result keeps a path of its own.
func TestArenaCarvesPeakInFlight(t *testing.T) {
	for _, shards := range []int{1, 2} {
		g, msgs, sched, cfg := churnPITScenario(t, 1<<12, false)
		cfg.Shards = shards
		r := runKept(t, g, msgs, sched, cfg, nil)
		name := fmt.Sprintf("churn_pit shards=%d", shards)
		peak := peakInFlight(r)
		bound := carvedFor(t, g, peak)
		if carved := r.arena.Carved(); carved > bound || 4*bound > len(msgs) {
			t.Errorf("%s: the arena carved %d walkers for %d lookups, peak %d in flight; want at most %d, under a quarter of the lookups",
				name, carved, len(msgs), peak, bound)
		}
		if r.out.Crashes == 0 || r.out.Suppressed == 0 {
			t.Fatalf("%s: %d crashes, %d suppressed: the scenario is vacuous", name, r.out.Crashes, r.out.Suppressed)
		}
		checkKeptPaths(t, name, r.out)
	}

	g := testGraph(t, 1<<10, 10, 11, 7)
	msgs := testMessages(t, g, 2048, 12)
	cfg := baseConfig()
	p, err := replica.NewPlacement(g.Space(), replica.Options{K: 4, CacheThreshold: 16, CacheCopies: 8}, 77)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Placement = p
	if err := cfg.validate(); err != nil {
		t.Fatal(err)
	}
	r := new(runner).reset(g, msgs, periodicSchedule(len(msgs), 16), cfg, rng.New(9))
	if r.runSnapshot(); r.err != nil {
		t.Fatal(r.err)
	}
	if carved := r.arena.Carved(); carved != cfg.BatchSize {
		t.Errorf("snapshot: the arena carved %d walkers for %d lookups in batches of %d, want %d",
			carved, len(msgs), cfg.BatchSize, cfg.BatchSize)
	}
	checkKeptPaths(t, "snapshot", r.out)
}
