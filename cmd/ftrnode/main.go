// Command ftrnode runs a live overlay demo over real TCP sockets: it
// starts a configurable number of nodes on loopback, joins them into a
// network with the §5 protocol, stores a set of key/value pairs,
// crashes a fraction of the nodes, runs self-healing, and verifies the
// surviving data is still reachable — the paper's fault-tolerance story
// end to end on a real transport.
//
// Usage:
//
//	ftrnode [-nodes 24] [-ring 4096] [-links 6] [-keys 32] [-crash 0.25] [-seed 1]
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/metric"
	"repro/internal/overlay"
	"repro/internal/rng"
	"repro/internal/transport"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		nodes    = flag.Int("nodes", 24, "number of TCP nodes to start")
		ringSize = flag.Int("ring", 4096, "identifier ring size")
		links    = flag.Int("links", 6, "long links per node")
		keys     = flag.Int("keys", 32, "key/value pairs to store")
		crash    = flag.Float64("crash", 0.25, "fraction of nodes to crash")
		seed     = flag.Uint64("seed", 1, "rng seed")
	)
	flag.Parse()
	if err := demo(*nodes, *ringSize, *links, *keys, *crash, *seed); err != nil {
		fmt.Fprintln(os.Stderr, "ftrnode:", err)
		return 1
	}
	return 0
}

func demo(nodes, ringSize, links, keys int, crash float64, seed uint64) error {
	ring, err := metric.NewRing(ringSize)
	if err != nil {
		return err
	}
	tr := transport.NewTCP()
	cluster, err := overlay.NewCluster(overlay.Config{
		Ring:        ring,
		Links:       links,
		Seed:        seed,
		CallTimeout: 2 * time.Second,
	}, tr)
	if err != nil {
		return err
	}
	defer cluster.Close()
	src := rng.New(seed)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	fmt.Printf("starting %d TCP nodes on a ring of %d ids...\n", nodes, ringSize)
	points := map[metric.Point]bool{}
	for len(points) < nodes {
		p := metric.Point(src.Intn(ringSize))
		if points[p] {
			continue
		}
		if _, err := cluster.AddNode(ctx, p); err != nil {
			return fmt.Errorf("add node %d: %w", p, err)
		}
		points[p] = true
	}
	cluster.MaintainAll(ctx)
	if addr, ok := tr.Addr(transport.NodeID(cluster.Nodes()[0])); ok {
		fmt.Printf("  e.g. node %d listens on %s\n", cluster.Nodes()[0], addr)
	}

	fmt.Printf("storing %d keys...\n", keys)
	writer, err := cluster.RandomNode()
	if err != nil {
		return err
	}
	stored := make(map[string]string, keys)
	for i := 0; i < keys; i++ {
		k := fmt.Sprintf("resource-%03d", i)
		v := fmt.Sprintf("payload-%03d", i)
		if _, err := writer.Put(ctx, k, v); err != nil {
			return fmt.Errorf("put %q: %w", k, err)
		}
		stored[k] = v
	}

	toCrash := min(int(crash*float64(cluster.Size())), cluster.Size()-1) // the writer survives
	fmt.Printf("crashing %d of %d nodes without warning...\n", toCrash, cluster.Size())
	for crashed := 0; crashed < toCrash; {
		pts := cluster.Nodes()
		victim := pts[src.Intn(len(pts))]
		if victim == writer.ID() {
			continue
		}
		if err := cluster.CrashNode(victim); err != nil {
			return err
		}
		crashed++
	}

	fmt.Println("running self-healing maintenance...")
	cluster.MaintainAll(ctx)
	cluster.MaintainAll(ctx)

	fmt.Println("verifying lookups after damage...")
	reader, err := cluster.RandomNode()
	if err != nil {
		return err
	}
	found, lost := 0, 0
	for k, want := range stored {
		v, ok, err := reader.Get(ctx, k)
		if err != nil {
			return fmt.Errorf("get %q: %w", k, err)
		}
		if ok && v == want {
			found++
		} else {
			lost++ // key lived on a crashed node: data loss without replication
		}
	}
	fmt.Printf("  %d/%d keys still resolvable (%d lost with their crashed owners)\n",
		found, len(stored), lost)
	fmt.Println("note: lost keys held by crashed owners are expected — the paper's design")
	fmt.Println("routes around failures; durability would need replication on top.")
	return nil
}
