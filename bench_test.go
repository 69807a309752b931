package repro

// Benchmark harness: one benchmark per paper table row / figure /
// ablation, each delegating to the shared experiment registry at a
// bench-friendly scale. `go test -bench=. -benchmem` regenerates the
// full evaluation; per-experiment tables land in the benchmark log via
// b.Log at -v, and cmd/ftrbench writes them to files.
//
// Custom metrics: benchmarks report ns/op for one full experiment run
// plus, where meaningful, the headline scalar of the artifact
// (mean-hops or failed-fraction) via b.ReportMetric, so regressions in
// routing quality — not just speed — show up in benchstat diffs.

import (
	"strconv"
	"testing"

	"repro/internal/experiments"
	"repro/internal/graph"
	"repro/internal/metric"
	"repro/internal/rng"
	"repro/internal/route"
	"repro/internal/sim"
)

// benchParams keeps every experiment fast enough to run repeatedly
// under -bench while preserving the paper's qualitative shape.
func benchParams() experiments.Params {
	return experiments.Params{N: 1 << 11, Trials: 2, Msgs: 50, Seed: 1, Workers: 4}
}

// runExperiment is the shared benchmark body.
func runExperiment(b *testing.B, id string, metricCol int, metricName string) {
	b.Helper()
	p := benchParams()
	var last *sim.Table
	for i := 0; i < b.N; i++ {
		t, err := experiments.Run(id, p)
		if err != nil {
			b.Fatal(err)
		}
		last = t
	}
	if last != nil && metricCol >= 0 && len(last.Rows) > 0 {
		row := last.Rows[len(last.Rows)-1]
		if metricCol < len(row) {
			if v, err := strconv.ParseFloat(row[metricCol], 64); err == nil {
				b.ReportMetric(v, metricName)
			}
		}
	}
	if last != nil {
		b.Log("\n" + last.String())
	}
}

// --- Table 1 ---------------------------------------------------------

func BenchmarkTable1SingleLink(b *testing.B) {
	runExperiment(b, "table1.nofail.l1", 1, "mean-hops")
}

func BenchmarkTable1MultiLink(b *testing.B) {
	runExperiment(b, "table1.nofail.multi", 1, "mean-hops")
}

func BenchmarkTable1Deterministic(b *testing.B) {
	runExperiment(b, "table1.nofail.detb", 1, "mean-hops")
}

func BenchmarkTable1LinkFailure(b *testing.B) {
	runExperiment(b, "table1.linkfail.multi", 1, "mean-hops")
}

func BenchmarkTable1DetLinkFailure(b *testing.B) {
	runExperiment(b, "table1.linkfail.detb", 1, "mean-hops")
}

func BenchmarkTable1BinomialNodes(b *testing.B) {
	runExperiment(b, "table1.nodefail.binomial", 1, "mean-hops")
}

func BenchmarkTable1GeneralNodeFailure(b *testing.B) {
	runExperiment(b, "table1.nodefail.general", 1, "mean-hops")
}

// --- Figures ---------------------------------------------------------

func BenchmarkFigure5Construction(b *testing.B) {
	runExperiment(b, "fig5a", -1, "")
}

func BenchmarkFigure5Error(b *testing.B) {
	runExperiment(b, "fig5b", -1, "")
}

func BenchmarkFigure6FailedSearches(b *testing.B) {
	runExperiment(b, "fig6a", 3, "failed-frac-backtrack-p0.8")
}

func BenchmarkFigure6DeliveryTime(b *testing.B) {
	runExperiment(b, "fig6b", 3, "mean-hops-backtrack-p0.8")
}

func BenchmarkFigure7HeuristicVsIdeal(b *testing.B) {
	runExperiment(b, "fig7", 1, "failed-frac-constructed-p0.9")
}

// --- Ablations and comparisons --------------------------------------

func BenchmarkAblationReplacement(b *testing.B) {
	runExperiment(b, "ablation.replacement", -1, "")
}

func BenchmarkAblationBacktrackMemory(b *testing.B) {
	runExperiment(b, "ablation.backtrack", 1, "failed-frac-mem20")
}

func BenchmarkAblationSidedness(b *testing.B) {
	runExperiment(b, "ablation.sidedness", -1, "")
}

func BenchmarkAblationExponent(b *testing.B) {
	runExperiment(b, "ablation.exponent", -1, "")
}

func BenchmarkBaselines(b *testing.B) {
	runExperiment(b, "baselines", -1, "")
}

func BenchmarkTheoryCrossCheck(b *testing.B) {
	runExperiment(b, "theory", -1, "")
}

func BenchmarkExtension2D(b *testing.B) {
	runExperiment(b, "ext.2d", -1, "")
}

func BenchmarkExtensionByzantine(b *testing.B) {
	runExperiment(b, "ext.byzantine", 3, "success-4copies-p0.3")
}

func BenchmarkExtensionPhysicalFailures(b *testing.B) {
	runExperiment(b, "ext.physical", -1, "")
}

func BenchmarkAblationSpace(b *testing.B) {
	runExperiment(b, "ablation.space", -1, "")
}

func BenchmarkExtensionChurn(b *testing.B) {
	runExperiment(b, "ext.churn", 1, "failed-frac-final")
}

func BenchmarkTable1Bounds(b *testing.B) {
	runExperiment(b, "table1.bounds", -1, "")
}

// --- Micro-benchmarks of the primitives ------------------------------
// These isolate the costs behind the experiment numbers: building a
// network, one greedy search, one arrival.

func BenchmarkMicroBuildIdeal(b *testing.B) {
	ring, err := metric.NewRing(1 << 14)
	if err != nil {
		b.Fatal(err)
	}
	cfg := graph.PaperConfig(14)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := graph.BuildIdeal(ring, cfg, rng.New(uint64(i))); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMicroSearch(b *testing.B) {
	const n = 1 << 14
	ring, err := metric.NewRing(n)
	if err != nil {
		b.Fatal(err)
	}
	g, err := graph.BuildIdeal(ring, graph.PaperConfig(14), rng.New(1))
	if err != nil {
		b.Fatal(err)
	}
	r := route.New(g, route.Options{})
	src := rng.New(2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		from := metric.Point(src.Intn(n))
		to := metric.Point(src.Intn(n))
		if _, err := r.Route(src, from, to); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMicroSearchDamaged(b *testing.B) {
	const n = 1 << 14
	ring, err := metric.NewRing(n)
	if err != nil {
		b.Fatal(err)
	}
	g, err := graph.BuildIdeal(ring, graph.PaperConfig(14), rng.New(1))
	if err != nil {
		b.Fatal(err)
	}
	src := rng.New(2)
	for i := 0; i < n/2; i++ {
		g.Fail(metric.Point(src.Intn(n)))
	}
	r := route.New(g, route.Options{DeadEnd: route.Backtrack})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		from, ok := g.RandomAlive(src)
		if !ok {
			b.Fatal("no live nodes")
		}
		to, ok := g.RandomAlive(src)
		if !ok || from == to {
			continue
		}
		if _, err := r.Route(src, from, to); err != nil {
			b.Fatal(err)
		}
	}
}
