package repro

// Integration tests: end-to-end flows that cross module boundaries,
// complementing the per-package unit tests. Each test exercises a slice
// of the paper's story through the public surfaces (core facade,
// overlay cluster, experiment registry).

import (
	"context"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/chain"
	"repro/internal/construct"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/keyspace"
	"repro/internal/metric"
	"repro/internal/overlay"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/transport"
)

// The paper's lifecycle in one test: grow a network with the §5
// heuristic, verify its distribution, damage it, route with every
// strategy, and check the measured hops against the theory bounds.
func TestEndToEndLifecycle(t *testing.T) {
	const n = 1 << 11
	nw, err := core.New(core.Config{Nodes: n, Construction: core.Heuristic, Seed: 101})
	if err != nil {
		t.Fatal(err)
	}

	// Healthy-network routing obeys the Theorem 13 bound.
	var healthy sim.SearchStats
	for i := 0; i < 200; i++ {
		res, err := nw.RandomSearch(core.SearchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		healthy.Record(res)
	}
	if healthy.FailedFraction() != 0 {
		t.Fatalf("healthy network failed %v of searches", healthy.FailedFraction())
	}
	upper := analysis.MultiLinkUpperBound(n, nw.Config().Links)
	if healthy.MeanHops() > upper {
		t.Errorf("mean hops %v exceeds Theorem 13 bound %v", healthy.MeanHops(), upper)
	}

	// Churn, then damage, then route with each dead-end strategy.
	for i := 0; i < 50; i++ {
		p := core.Point(i * 7 % n)
		if err := nw.RemoveNode(p); err != nil {
			continue
		}
		if err := nw.AddNode(p); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := nw.FailNodes(0.4); err != nil {
		t.Fatal(err)
	}
	failRates := map[string]float64{}
	for name, opt := range map[string]core.SearchOptions{
		"terminate": {DeadEnd: core.Terminate},
		"backtrack": {DeadEnd: core.Backtrack},
	} {
		var s sim.SearchStats
		for i := 0; i < 200; i++ {
			res, err := nw.RandomSearch(opt)
			if err != nil {
				t.Fatal(err)
			}
			s.Record(res)
		}
		failRates[name] = s.FailedFraction()
	}
	if failRates["backtrack"] > failRates["terminate"] {
		t.Errorf("backtracking (%v) lost to terminate (%v)",
			failRates["backtrack"], failRates["terminate"])
	}
}

// The §2 pipeline: resources hash to points, machines own point sets,
// the overlay routes lookups to resource owners.
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
	tr := transport.NewInMem(31)
	cluster, err := overlay.NewCluster(overlay.Config{Ring: ring, Links: 4, Seed: 31}, tr)
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	// One overlay node per occupied point (the virtual overlay of
	// Figure 1), plus a querier.
	for p, present := range mapping.PresenceMask() {
		if present {
			if _, err := cluster.AddNode(ctx, metric.Point(p)); err != nil {
				t.Fatal(err)
			}
		}
	}
	querier, err := cluster.AddNode(ctx, metric.Point(9))
	if err != nil {
		t.Fatal(err)
	}
	cluster.MaintainAll(ctx)

	for _, k := range resources {
		point, err := keyspace.Hash(k, n)
		if err != nil {
			t.Fatal(err)
		}
		owner, _, err := querier.Lookup(ctx, point)
		if err != nil {
			t.Fatalf("lookup %q: %v", k, err)
		}
		// The overlay must find the node hosting the resource's point
		// (or the querier itself if it is closest).
		if owner != point && owner != 9 {
			if _, ok := mapping.OwnerOf(owner); !ok {
				t.Errorf("lookup of %q landed on %d, which hosts nothing", k, owner)
			}
		}
	}
}

// The theory package and the chain machinery agree with the actual
// router: expected hops from simulation lie between the Theorem 10
// lower bound and the KUW upper bound, and the chain package's
// trajectory model scales the same way as the full router.
func TestTheorySimulationConsistency(t *testing.T) {
	const n = 1 << 10
	nw, err := core.New(core.Config{Nodes: n, Links: 4, Seed: 55})
	if err != nil {
		t.Fatal(err)
	}
	var s sim.SearchStats
	for i := 0; i < 300; i++ {
		res, err := nw.RandomSearch(core.SearchOptions{DirectedOnly: true})
		if err != nil {
			t.Fatal(err)
		}
		s.Record(res)
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

// Replication keeps a workload readable through the loss the plain
// overlay cannot survive.
func TestReplicatedWorkloadSurvivesCrashes(t *testing.T) {
	ring, err := metric.NewRing(1 << 10)
	if err != nil {
		t.Fatal(err)
	}
	tr := transport.NewInMem(41)
	cluster, err := overlay.NewCluster(overlay.Config{Ring: ring, Links: 4, Seed: 41}, tr)
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	src := rng.New(42)
	for cluster.Size() < 24 {
		p := metric.Point(src.Intn(1 << 10))
		if _, ok := cluster.Node(p); ok {
			continue
		}
		if _, err := cluster.AddNode(ctx, p); err != nil {
			t.Fatal(err)
		}
	}
	cluster.MaintainAll(ctx)

	writer, err := cluster.RandomNode()
	if err != nil {
		t.Fatal(err)
	}
	keys := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	replicaSets := map[string][]metric.Point{}
	for _, k := range keys {
		stored, err := writer.PutReplicated(ctx, k, "v-"+k, 3)
		if err != nil {
			t.Fatalf("put %q: %v", k, err)
		}
		replicaSets[k] = stored
	}
	// Crash a third of the cluster (never the writer).
	dead := map[metric.Point]bool{}
	for len(dead) < 8 {
		pts := cluster.Nodes()
		victim := pts[src.Intn(len(pts))]
		if victim == writer.ID() {
			continue
		}
		if err := cluster.CrashNode(victim); err != nil {
			t.Fatal(err)
		}
		dead[victim] = true
	}
	// Several healing rounds: ring closure over multi-node gaps
	// propagates one neighbourhood per round.
	for i := 0; i < 3; i++ {
		cluster.MaintainAll(ctx)
	}

	// The replication contract: a key survives exactly when at least
	// one of its replicas survived the crash.
	for _, k := range keys {
		alive := 0
		for _, p := range replicaSets[k] {
			if !dead[p] {
				alive++
			}
		}
		v, ok, err := writer.GetReplicated(ctx, k, 3)
		got := err == nil && ok && v == "v-"+k
		if alive > 0 && !got {
			t.Errorf("key %q has %d live replicas %v but was unreadable (err=%v)",
				k, alive, replicaSets[k], err)
		}
		if alive == 0 && got {
			t.Errorf("key %q readable with all replicas dead — phantom data", k)
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

func parseFloat(t *testing.T, s string) float64 {
	t.Helper()
	var v float64
	if _, err := fmt.Sscan(s, &v); err != nil {
		t.Fatalf("cell %q is not a number: %v", s, err)
	}
	return v
}
