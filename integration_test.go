package repro

// Integration tests: end-to-end flows that cross module boundaries,
// complementing the per-package unit tests. Each test exercises a slice
// of the paper's story through the calls the experiments make (graph
// build, §5 construction, routing, failure injection) and the
// experiment registry.

import (
	"fmt"
	"math"
	"os"
	"os/exec"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/chain"
	"repro/internal/construct"
	"repro/internal/experiments"
	"repro/internal/failure"
	"repro/internal/graph"
	"repro/internal/keyspace"
	"repro/internal/mathx"
	"repro/internal/metric"
	"repro/internal/rng"
	"repro/internal/route"
	"repro/internal/sim"
)

// The paper's lifecycle in one test: grow a network with the §5
// heuristic, verify its distribution, damage it, route with every
// strategy, and check the measured hops against the theory bounds.
func TestEndToEndLifecycle(t *testing.T) {
	const n = 1 << 11
	links := mathx.ILog2(n)
	root := rng.New(101)
	ring, err := metric.NewRing(n)
	if err != nil {
		t.Fatal(err)
	}
	b, err := construct.NewBuilder(ring, construct.Config{Links: links}, root.Derive(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range root.Derive(2).Perm(n) {
		if err := b.Add(metric.Point(i)); err != nil {
			t.Fatal(err)
		}
	}
	g := b.Graph()

	// Healthy-network routing obeys the Theorem 13 bound.
	var healthy sim.SearchStats
	for i := 0; i < 200; i++ {
		healthy.Record(randomSearch(t, g, root, route.Options{}))
	}
	if healthy.FailedFraction() != 0 {
		t.Fatalf("healthy network failed %v of searches", healthy.FailedFraction())
	}
	upper := analysis.MultiLinkUpperBound(n, links)
	if healthy.MeanHops() > upper {
		t.Errorf("mean hops %v exceeds Theorem 13 bound %v", healthy.MeanHops(), upper)
	}

	// Churn, then damage, then route with each dead-end strategy.
	for i := 0; i < 50; i++ {
		p := metric.Point(i * 7 % n)
		if err := b.Remove(p); err != nil {
			continue
		}
		if err := b.Add(p); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := failure.FailNodesFraction(g, 0.4, root.Derive(3)); err != nil {
		t.Fatal(err)
	}
	failRates := map[string]float64{}
	for name, opt := range map[string]route.Options{
		"terminate": {DeadEnd: route.Terminate},
		"backtrack": {DeadEnd: route.Backtrack},
	} {
		var s sim.SearchStats
		for i := 0; i < 200; i++ {
			s.Record(randomSearch(t, g, root, opt))
		}
		failRates[name] = s.FailedFraction()
	}
	if failRates["backtrack"] > failRates["terminate"] {
		t.Errorf("backtracking (%v) lost to terminate (%v)",
			failRates["backtrack"], failRates["terminate"])
	}
}

// The §2 pipeline (Figure 1): resources hash to points, machines own
// the points of the resources they add, and the overlay over the
// occupied points routes a lookup to the point a resource hashes to,
// whose owner is the machine that added it.
func TestResourceLocationPipeline(t *testing.T) {
	const n = 1 << 12
	mapping, err := keyspace.NewMapping(n)
	if err != nil {
		t.Fatal(err)
	}
	resources := []keyspace.Key{"kernel.iso", "thesis.pdf", "track-01.ogg", "photo.raw"}
	for i, k := range resources {
		if _, err := mapping.Add(keyspace.PhysID(i%2), k); err != nil {
			t.Fatal(err)
		}
	}
	ring, err := metric.NewRing(n)
	if err != nil {
		t.Fatal(err)
	}
	// One node per occupied point, plus the querier at point 9.
	const querier = metric.Point(9)
	present := mapping.PresenceMask()
	present[querier] = true
	g, err := graph.BuildIdealWithPresence(ring, graph.PaperConfigFor(ring, 4), present, rng.New(31))
	if err != nil {
		t.Fatal(err)
	}
	r := route.New(g, route.Options{})
	src := rng.New(32)
	for i, k := range resources {
		point, err := keyspace.Hash(k, n)
		if err != nil {
			t.Fatal(err)
		}
		res, err := r.Route(src, querier, point)
		if err != nil {
			t.Fatalf("lookup %q: %v", k, err)
		}
		if !res.Delivered || res.Target != point {
			t.Fatalf("lookup of %q (point %d) ended at %d, delivered=%v", k, point, res.Target, res.Delivered)
		}
		if owner, ok := mapping.OwnerOf(res.Target); !ok || owner != keyspace.PhysID(i%2) {
			t.Errorf("point %d of %q is owned by %d (ok=%v), want machine %d", point, k, owner, ok, i%2)
		}
	}
}

// The theory package and the chain machinery agree with the actual
// router: expected hops from simulation lie between the Theorem 10
// lower bound and the KUW upper bound, and the chain package's
// trajectory model scales the same way as the full router.
func TestTheorySimulationConsistency(t *testing.T) {
	const n = 1 << 10
	root := rng.New(55)
	ring, err := metric.NewRing(n)
	if err != nil {
		t.Fatal(err)
	}
	g, err := graph.BuildIdeal(ring, graph.PaperConfigFor(ring, 4), root.Derive(1))
	if err != nil {
		t.Fatal(err)
	}
	var s sim.SearchStats
	for i := 0; i < 300; i++ {
		s.Record(randomSearch(t, g, root, route.Options{DirectedOnly: true}))
	}
	lower := analysis.Theorem10LowerBound(n, 4, false)
	upper := analysis.MultiLinkUpperBound(n, 4)
	if s.MeanHops() < lower || s.MeanHops() > upper {
		t.Errorf("mean hops %v outside [%v, %v]", s.MeanHops(), lower, upper)
	}

	// Chain-model trajectory at the same scale.
	dist, err := chain.NewHarmonicBernoulli(n, 4)
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(56)
	var total int
	const trials = 200
	for i := 0; i < trials; i++ {
		steps, reached := chain.Trajectory(src.Intn(n)+1, dist, chain.TwoSided, src, 1000000)
		if !reached {
			t.Fatal("chain trajectory stuck")
		}
		total += steps
	}
	chainMean := float64(total) / trials
	// Different regeneration semantics (fresh links per visit) and a
	// boundary-less target mean the constants differ, but both must
	// live in the same Θ(log²n/ℓ) regime.
	if chainMean > 8*s.MeanHops() || s.MeanHops() > 8*chainMean {
		t.Errorf("chain model (%v) and router (%v) are in different regimes",
			chainMean, s.MeanHops())
	}
}

// The construct builder's output must behave equivalently to the ideal
// builder under the experiment harness — the Figure 7 claim as a test.
func TestConstructedVsIdealComparable(t *testing.T) {
	tbl, err := experiments.Run("fig7", experiments.Params{
		N: 1 << 10, Trials: 2, Msgs: 100, Seed: 77,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tbl.Rows {
		constructed := parseFloat(t, row[1])
		ideal := parseFloat(t, row[2])
		if math.Abs(constructed-ideal) > 0.25 {
			t.Errorf("p=%s: constructed %v vs ideal %v — gap too large", row[0], constructed, ideal)
		}
	}
}

// The oldest-link strategy and inverse-distance strategy both sustain
// the routing invariant through the same churn script.
func TestReplacementStrategiesEquivalentUnderChurn(t *testing.T) {
	for _, strat := range []construct.ReplacementStrategy{construct.InverseDistance, construct.Oldest} {
		ring, err := metric.NewRing(512)
		if err != nil {
			t.Fatal(err)
		}
		b, err := construct.NewBuilder(ring, construct.Config{Links: 6, Strategy: strat}, rng.New(91))
		if err != nil {
			t.Fatal(err)
		}
		src := rng.New(92)
		for _, i := range src.Perm(512) {
			if err := b.Add(metric.Point(i)); err != nil {
				t.Fatal(err)
			}
		}
		for step := 0; step < 100; step++ {
			p := metric.Point(src.Intn(512))
			if b.Graph().Exists(p) {
				if err := b.Remove(p); err != nil {
					t.Fatal(err)
				}
			} else if err := b.Add(p); err != nil {
				t.Fatal(err)
			}
		}
		// No dangling links after churn, under either strategy.
		g := b.Graph()
		for i := 0; i < g.Size(); i++ {
			for _, lk := range g.Long(metric.Point(i)) {
				if lk.Up && !g.Exists(lk.To) {
					t.Fatalf("strategy %v: up link %d->%d dangles", strat, i, lk.To)
				}
			}
		}
	}
}

// Experiment tables render in both formats without loss.
func TestExperimentTableRendering(t *testing.T) {
	tbl, err := experiments.Run("table1.nofail.detb", experiments.Params{
		N: 1 << 9, Trials: 1, Msgs: 30, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	var text, csv strings.Builder
	if err := tbl.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	if err := tbl.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text.String(), "base b") || !strings.Contains(csv.String(), "base b") {
		t.Error("column header missing from rendered output")
	}
	if len(strings.Split(strings.TrimSpace(csv.String()), "\n")) != len(tbl.Rows)+1 {
		t.Error("CSV row count mismatch")
	}
}

// The benchmark harness is a module of its own (ftrmark/go.mod), so
// `go build ./... && go test ./...` at the root never compiles it —
// yet it imports repro/internal/... and mirrors engine.Config wiring.
// Vet and test it from here, so a change that breaks it fails tier-1
// rather than the benchmark step.
func TestFtrmarkModule(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the go tool on the ftrmark module")
	}
	for _, sub := range []string{"vet", "test"} {
		cmd := exec.Command("go", sub, "-C", "ftrmark", "./...")
		cmd.Env = append(os.Environ(), "GOFLAGS=-mod=mod", "GOWORK=off")
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Errorf("go %s -C ftrmark ./...: %v\n%s", sub, err, out)
		}
	}
}

// randomSearch routes between two uniformly random live nodes of g,
// drawing both endpoints and the walk from src. Unlike
// sim.MeasureSearches it does not redraw a destination equal to the
// origin: that search counts as delivered in zero hops.
func randomSearch(t *testing.T, g *graph.Graph, src *rng.Source, opt route.Options) route.Result {
	t.Helper()
	from, ok := g.RandomAlive(src)
	to, ok2 := g.RandomAlive(src)
	if !ok || !ok2 {
		t.Fatal("no live nodes")
	}
	if from == to {
		return route.Result{Delivered: true}
	}
	res, err := route.New(g, opt).Route(src, from, to)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func parseFloat(t *testing.T, s string) float64 {
	t.Helper()
	var v float64
	if _, err := fmt.Sscan(s, &v); err != nil {
		t.Fatalf("cell %q is not a number: %v", s, err)
	}
	return v
}

// The scenarios below run each step of the paper's system on its own,
// through the calls every experiment makes: build a network
// (graph.BuildIdeal, or the §5 construct.Builder), route searches
// between random live nodes, crash nodes, and change membership.

// ideal samples a network from the paper's distribution (exponent =
// dimension) with stream 1 of the root; searches draw from the root and
// failures from stream 3.
func idealNetwork(t *testing.T, space metric.Space, links int, seed uint64) (*graph.Graph, *rng.Source) {
	t.Helper()
	root := rng.New(seed)
	g, err := graph.BuildIdeal(space, graph.PaperConfigFor(space, links), root.Derive(1))
	if err != nil {
		t.Fatal(err)
	}
	return g, root
}

// grown builds a network with the §5 arrival protocol, nodes arriving in
// the order stream 2 of the root draws.
func grownNetwork(t *testing.T, space metric.Space, cfg construct.Config, seed uint64) (*construct.Builder, *rng.Source) {
	t.Helper()
	root := rng.New(seed)
	b, err := construct.NewBuilder(space, cfg, root.Derive(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range root.Derive(2).Perm(space.Size()) {
		if err := b.Add(metric.Point(i)); err != nil {
			t.Fatal(err)
		}
	}
	return b, root
}

func ringSpace(t *testing.T, n int) metric.Space {
	t.Helper()
	s, err := metric.NewRing(n)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func torusSpace(t *testing.T, side, dim int) metric.Space {
	t.Helper()
	s, err := metric.NewTorus(side, dim)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestIdealNetworkSearch(t *testing.T) {
	g, root := idealNetwork(t, ringSpace(t, 1<<10), mathx.ILog2(1<<10), 1)
	res, err := route.New(g, route.Options{}).Route(root, 3, 700)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Delivered {
		t.Error("failure-free search should deliver")
	}
	if res.Hops <= 0 || res.Hops > 100 {
		t.Errorf("hops = %d", res.Hops)
	}
	if g.Size() != 1024 || g.AliveCount() != 1024 {
		t.Errorf("size %d, alive %d", g.Size(), g.AliveCount())
	}
	if g.AvgOutDegree() != 10 {
		t.Errorf("mean degree = %v, want lg 1024 = 10", g.AvgOutDegree())
	}
}

func TestRandomSearchWorkload(t *testing.T) {
	g, root := idealNetwork(t, ringSpace(t, 512), mathx.ILog2(512), 2)
	for i := 0; i < 50; i++ {
		res := randomSearch(t, g, root, route.Options{})
		if !res.Delivered {
			t.Fatal("failure-free random search failed")
		}
	}
}

func TestLineSpace(t *testing.T) {
	line, err := metric.NewLine(256)
	if err != nil {
		t.Fatal(err)
	}
	g, root := idealNetwork(t, line, mathx.ILog2(256), 3)
	res, err := route.New(g, route.Options{Sidedness: route.OneSided}).Route(root, 0, 255)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Delivered {
		t.Error("line one-sided search failed")
	}
}

func TestFailureInjection(t *testing.T) {
	g, root := idealNetwork(t, ringSpace(t, 1000), mathx.ILog2(1000), 4)
	crashed, err := failure.FailNodesFraction(g, 0.3, root.Derive(3))
	if err != nil {
		t.Fatal(err)
	}
	if crashed != 300 || g.AliveCount() != 700 {
		t.Errorf("crashed %d, alive %d", crashed, g.AliveCount())
	}
	// Searches still mostly work with backtracking.
	delivered := 0
	for i := 0; i < 50; i++ {
		res := randomSearch(t, g, root, route.Options{DeadEnd: route.Backtrack})
		if res.Delivered {
			delivered++
		}
	}
	if delivered < 25 {
		t.Errorf("only %d/50 delivered under moderate damage", delivered)
	}
}

func TestHeuristicNetworkChurn(t *testing.T) {
	b, root := grownNetwork(t, ringSpace(t, 256), construct.Config{Links: mathx.ILog2(256)}, 5)
	g := b.Graph()
	if g.AliveCount() != 256 {
		t.Fatalf("alive = %d", g.AliveCount())
	}
	if err := b.Remove(17); err != nil {
		t.Fatal(err)
	}
	if g.AliveCount() != 255 {
		t.Errorf("alive after removal = %d", g.AliveCount())
	}
	if err := b.Add(17); err != nil {
		t.Fatal(err)
	}
	if g.AliveCount() != 256 {
		t.Errorf("alive after re-add = %d", g.AliveCount())
	}
	res := randomSearch(t, g, root, route.Options{})
	if !res.Delivered {
		t.Error("search over churned heuristic network failed")
	}
}

func TestHeuristicReplacementStrategy(t *testing.T) {
	b, root := grownNetwork(t, ringSpace(t, 128), construct.Config{Links: mathx.ILog2(128), Strategy: construct.Oldest}, 6)
	res := randomSearch(t, b.Graph(), root, route.Options{})
	if !res.Delivered {
		t.Error("search over an Oldest-replacement network failed")
	}
}

func TestDeterministicReproducibility(t *testing.T) {
	type snapshot struct {
		alive, links int
		res          route.Result
	}
	build := func() snapshot {
		g, root := idealNetwork(t, ringSpace(t, 512), mathx.ILog2(512), 99)
		res, err := route.New(g, route.Options{}).Route(root, 1, 400)
		if err != nil {
			t.Fatal(err)
		}
		return snapshot{g.AliveCount(), g.LongLinkCount(), res}
	}
	s1, s2 := build(), build()
	if s1.alive != s2.alive || s1.links != s2.links || s1.res.Hops != s2.res.Hops || s1.res.Delivered != s2.res.Delivered {
		t.Errorf("same seed should rebuild the identical network: %+v vs %+v", s1, s2)
	}
}

func TestTorusNetworkEndToEnd(t *testing.T) {
	space := torusSpace(t, 24, 2)
	g, root := idealNetwork(t, space, 4, 5)
	if space.Dim() != 2 || space.Name() != "torus2d" {
		t.Errorf("space = %s dim %d", space.Name(), space.Dim())
	}
	if g.Size() != 576 {
		t.Errorf("nodes = %d, want 576", g.Size())
	}
	// Healthy torus searches always deliver.
	for i := 0; i < 50; i++ {
		res := randomSearch(t, g, root, route.Options{})
		if !res.Delivered {
			t.Fatal("failure-free 2-D search failed")
		}
	}
	// The §6 damage model and recovery strategies run unchanged.
	if _, err := failure.FailNodesFraction(g, 0.3, root.Derive(3)); err != nil {
		t.Fatal(err)
	}
	delivered := 0
	for i := 0; i < 50; i++ {
		res := randomSearch(t, g, root, route.Options{DeadEnd: route.Backtrack})
		if res.Delivered {
			delivered++
		}
	}
	if delivered < 40 {
		t.Errorf("backtracking delivered only %d/50 after 30%% failures", delivered)
	}
	// One-sided routing is undefined on a torus and must error.
	from, _ := g.RandomAlive(root)
	to, _ := g.RandomAlive(root)
	if _, err := route.New(g, route.Options{Sidedness: route.OneSided}).Route(root, from, to); err == nil ||
		!strings.Contains(err.Error(), "one-sided") {
		t.Errorf("one-sided routing on a torus: err = %v, want the one-sided error", err)
	}
}

func TestTorusHeuristicConstruction(t *testing.T) {
	b, root := grownNetwork(t, torusSpace(t, 12, 2), construct.Config{Links: 3}, 9)
	res := randomSearch(t, b.Graph(), root, route.Options{})
	if !res.Delivered {
		t.Error("heuristic 2-D network failed a healthy search")
	}
	// Membership changes run through the same §5 protocol.
	if err := b.Remove(7); err != nil {
		t.Fatal(err)
	}
	if err := b.Add(7); err != nil {
		t.Fatal(err)
	}
}
