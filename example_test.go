package repro_test

// Runnable walk-throughs of the library, each pinned by its Output
// comment: `go test -run Example -v .` executes them. The experiments
// themselves (`ftrsim -list`) are the paper's evidence; these show the
// surfaces no experiment id prints.

import (
	"context"
	"fmt"
	"log"
	"strings"
	"time"

	"repro/internal/failure"
	"repro/internal/graph"
	"repro/internal/mathx"
	"repro/internal/metric"
	"repro/internal/overlay"
	"repro/internal/rng"
	"repro/internal/route"
	"repro/internal/sim"
	"repro/internal/transport"
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

// The workload that motivated the paper, on the live overlay over an
// in-memory transport: peers publish a catalog, Zipf-weighted lookups
// resolve it, a quarter of the swarm crashes, the ring heals, and
// 3-way replication keeps the catalog through a second crash wave.
func Example_fileSharing() {
	const ringSize, peers = 1 << 12, 64
	ring := must(metric.NewRing(ringSize))
	cluster := must(overlay.NewCluster(overlay.Config{
		Ring: ring, Links: 6, Seed: 7, CallTimeout: time.Second,
	}, transport.NewInMem(7)))
	defer cluster.Close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	src := rng.New(7)

	for cluster.Size() < peers {
		p := metric.Point(src.Intn(ringSize))
		if _, ok := cluster.Node(p); !ok {
			must(cluster.AddNode(ctx, p))
		}
	}
	cluster.MaintainAll(ctx)

	files := make([]string, 128)
	for i := range files {
		files[i] = fmt.Sprintf("track-%03d.ogg", i)
		publisher := must(cluster.RandomNode())
		must(publisher.Put(ctx, files[i], fmt.Sprintf("held-by-peer-%d", publisher.ID())))
	}
	zipf := must(rng.NewZipf(len(files), 1))
	lookup := func(tag string) {
		found, hops := 0, 0
		for i := 0; i < 128; i++ {
			file := files[zipf.Sample(src)-1]
			peer := must(cluster.RandomNode())
			_, h, err := peer.Lookup(ctx, overlay.HashKey(file, ring))
			if err != nil {
				continue
			}
			if _, ok, err := peer.Get(ctx, file); err == nil && ok {
				found++
				hops += h
			}
		}
		fmt.Printf("%-8s %3d/128 lookups resolved, mean %.1f hops\n", tag, found, float64(hops)/float64(max(found, 1)))
	}
	crash := func(k int) {
		for i := 0; i < k; i++ {
			pts := cluster.Nodes()
			if err := cluster.CrashNode(pts[src.Intn(len(pts))]); err != nil {
				log.Fatal(err)
			}
		}
	}
	lookup("healthy")
	crash(peers / 4)
	lookup("degraded")
	cluster.MaintainAll(ctx)
	cluster.MaintainAll(ctx)
	lookup("healed")

	// Entries whose owner crashed are gone; replication closes the gap.
	for _, f := range files {
		must(must(cluster.RandomNode()).PutReplicated(ctx, f, "replicated", 3))
	}
	crash(8)
	for i := 0; i < 3; i++ {
		cluster.MaintainAll(ctx)
	}
	found := 0
	for i := 0; i < 128; i++ {
		file := files[zipf.Sample(src)-1]
		if _, ok, err := must(cluster.RandomNode()).GetReplicated(ctx, file, 3); err == nil && ok {
			found++
		}
	}
	fmt.Printf("replicated: %d/128 lookups resolved after a second crash wave\n", found)
	// Output:
	// healthy  128/128 lookups resolved, mean 3.2 hops
	// degraded  50/128 lookups resolved, mean 3.6 hops
	// healed    72/128 lookups resolved, mean 3.3 hops
	// replicated: 128/128 lookups resolved after a second crash wave
}

// The same overlay on TCP loopback: 16 nodes join through the §5
// protocol, store keys, lose two nodes, heal, and read every key back
// through a different node.
func Example_tcpCluster() {
	cluster := must(overlay.NewCluster(overlay.Config{
		Ring: must(metric.NewRing(1 << 10)), Links: 5, Seed: 3, CallTimeout: 2 * time.Second,
	}, transport.NewTCP()))
	defer cluster.Close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	for _, p := range []metric.Point{12, 77, 140, 201, 266, 330, 395, 460,
		524, 589, 650, 715, 780, 845, 910, 975} {
		must(cluster.AddNode(ctx, p))
	}
	cluster.MaintainAll(ctx)

	entries := [][2]string{
		{"cluster/name", "ftr-demo"},
		{"cluster/version", "1.0"},
		{"feature/greedy", "enabled"},
		{"feature/backtrk", "enabled"},
		{"quota/default", "100GB"},
	}
	writer, _ := cluster.Node(12)
	for _, e := range entries {
		fmt.Printf("%-16s -> owner node %d\n", e[0], must(writer.Put(ctx, e[0], e[1])))
	}

	for _, victim := range []metric.Point{330, 524} {
		if err := cluster.CrashNode(victim); err != nil {
			log.Fatal(err)
		}
	}
	cluster.MaintainAll(ctx)
	cluster.MaintainAll(ctx)

	reader, _ := cluster.Node(910)
	var status []string
	for _, e := range entries {
		v, ok, err := reader.Get(ctx, e[0])
		switch {
		case err != nil:
			status = append(status, "error: "+err.Error())
		case !ok:
			status = append(status, "lost")
		case v != e[1]:
			status = append(status, "corrupt")
		default:
			status = append(status, "ok")
		}
	}
	fmt.Println("after crashing 330 and 524, read via 910:", strings.Join(status, " "))
	// Output:
	// cluster/name     -> owner node 395
	// cluster/version  -> owner node 780
	// feature/greedy   -> owner node 780
	// feature/backtrk  -> owner node 845
	// quota/default    -> owner node 780
	// after crashing 330 and 524, read via 910: ok ok ok ok ok
}
