package repro_test

// Runnable walk-throughs of the library, each pinned by its Output
// comment: `go test -run Example -v .` executes them. The experiments
// themselves (`ftrsim -list`) are the paper's evidence; these show the
// surfaces no experiment id prints.

import (
	"fmt"
	"log"

	"repro/internal/failure"
	"repro/internal/graph"
	"repro/internal/mathx"
	"repro/internal/metric"
	"repro/internal/rng"
	"repro/internal/route"
	"repro/internal/sim"
	"repro/internal/viz"
)

func must[T any](v T, err error) T {
	if err != nil {
		log.Fatal(err)
	}
	return v
}

// Build the paper's overlay with the calls every experiment makes,
// route a traced search, look at the 1/d link-length law, then crash
// half the network and compare the three dead-end strategies.
func Example_quickstart() {
	// A ring of n = 2^12 points, each node holding lg n = 12 long links
	// drawn with Pr[length d] ∝ 1/d (graph.PaperConfigFor: exponent =
	// dimension). Stream 1 of the root builds, stream 3 crashes, and
	// searches draw from the root itself.
	const n = 1 << 12
	root := rng.New(42)
	ring := must(metric.NewRing(n))
	g := must(graph.BuildIdeal(ring, graph.PaperConfigFor(ring, mathx.ILog2(n)), root.Derive(1)))
	fmt.Printf("built network: %d nodes, %d long links (%.1f per node)\n",
		g.Size(), g.LongLinkCount(), g.AvgOutDegree())

	res := must(route.New(g, route.Options{TracePath: true}).Route(root, 17, 2300))
	fmt.Printf("search 17 -> 2300: delivered=%v in %d hops (ring distance %d)\n",
		res.Delivered, res.Hops, ring.Distance(17, 2300))
	fmt.Printf("path: %s\n", viz.RingPath(n, res.Path, 64))

	lengths := mathx.NewLogHistogram(n)
	for p := metric.Point(0); p < n; p++ {
		for _, lk := range g.Long(p) {
			lengths.Add(ring.Distance(p, lk.To))
		}
	}
	fmt.Println("link lengths (log buckets, probability mass):")
	fmt.Print(viz.HistogramBars(lengths, 6, 32))

	// The §6 workload: a search between two random live nodes (both
	// may be the same node: delivered in zero hops).
	randomSearch := func(opt route.Options) route.Result {
		from, _ := g.RandomAlive(root)
		to, _ := g.RandomAlive(root)
		if from == to {
			return route.Result{Delivered: true}
		}
		return must(route.New(g, opt).Route(root, from, to))
	}
	hops := make([]float64, 40)
	for i := range hops {
		hops[i] = float64(randomSearch(route.Options{}).Hops)
	}
	fmt.Printf("40 random searches: %s\n", viz.Sparkline(hops))

	fmt.Printf("crashed %d nodes\n", must(failure.FailNodesFraction(g, 0.5, root.Derive(3))))
	for _, policy := range []route.DeadEndPolicy{route.Terminate, route.RandomReroute, route.Backtrack} {
		var stats sim.SearchStats
		for i := 0; i < 100; i++ {
			stats.Record(randomSearch(route.Options{DeadEnd: policy}))
		}
		fmt.Printf("  %-14v delivered %3d/100, mean %.1f hops\n", policy, stats.Delivered, stats.MeanHops())
	}
	// Output:
	// built network: 4096 nodes, 49152 long links (12.0 per node)
	// search 17 -> 2300: delivered=true in 5 hops (ring distance 1813)
	// path: S··································T··**························
	// link lengths (log buckets, probability mass):
	// 1     ████████████████████████████████ 0.12296549479166667
	// 2-3   ██████████████████████████ 0.10117594401041667
	// 4-7   ████████████████████████ 0.09185791015625
	// 8-15  ███████████████████████ 0.08872477213541667
	// 16-31 ██████████████████████ 0.08575439453125
	// 32-63 ██████████████████████ 0.08514404296875
	// 40 random searches: █▆▅▂▅▃▃▆▂▁▄▄▃▄▄▅▂▄▄▄▄▃▂▁▄▅▅▆▃▃▄▄▄▄▅▅▅▅▅▄
	// crashed 2048 nodes
	//   terminate      delivered  75/100, mean 6.1 hops
	//   random-reroute delivered  85/100, mean 7.1 hops
	//   backtracking   delivered  98/100, mean 8.7 hops
}

// The adversarial case the paper's random-failure model never hits: a
// contiguous dead interval (failure.FailInterval) cuts the short-link
// chain, yet long links jump it and no search fails, while the same
// number of scattered crashes strands some greedy searches.
func Example_faultTolerance() {
	const n, dead = 1 << 12, 1 << 10
	ring := must(metric.NewRing(n))
	build := func() *graph.Graph {
		return must(graph.BuildIdeal(ring, graph.PaperConfigFor(ring, mathx.ILog2(n)), rng.New(22).Derive(1)))
	}
	interval := build()
	failure.FailInterval(interval, 1000, dead)
	scattered := build()
	must(failure.FailNodesFraction(scattered, float64(dead)/n, rng.New(22).Derive(3)))

	fmt.Printf("%d of %d nodes dead\n", dead, n)
	for _, c := range []struct {
		name string
		g    *graph.Graph
	}{{"interval", interval}, {"scattered", scattered}} {
		for _, policy := range []route.DeadEndPolicy{route.Terminate, route.RandomReroute, route.Backtrack} {
			r := route.New(c.g, route.Options{DeadEnd: policy})
			stats := must(sim.MeasureSearches(c.g, r, rng.New(23), 300))
			fmt.Printf("  %-9s %-14v failed %.3f, mean %.1f hops\n",
				c.name, policy, stats.FailedFraction(), stats.MeanHops())
		}
	}
	// Output:
	// 1024 of 4096 nodes dead
	//   interval  terminate      failed 0.000, mean 5.0 hops
	//   interval  random-reroute failed 0.000, mean 5.0 hops
	//   interval  backtracking   failed 0.000, mean 5.0 hops
	//   scattered terminate      failed 0.097, mean 5.5 hops
	//   scattered random-reroute failed 0.040, mean 5.8 hops
	//   scattered backtracking   failed 0.007, mean 5.9 hops
}
