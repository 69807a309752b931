// Filesharing: the workload that motivated the paper — peers share
// files, keys are hashed onto the metric space, and lookups locate the
// owner by greedy routing. Runs on the live overlay (message-passing
// nodes over an in-memory transport), stores a music-catalog workload,
// then kills a quarter of the swarm and shows lookups still resolving.
//
//	go run ./examples/filesharing
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"repro/internal/metric"
	"repro/internal/overlay"
	"repro/internal/rng"
	"repro/internal/transport"
)

func main() {
	const (
		ringSize = 1 << 12
		peers    = 64
		links    = 6
	)
	ring, err := metric.NewRing(ringSize)
	if err != nil {
		log.Fatal(err)
	}
	tr := transport.NewInMem(7)
	cluster, err := overlay.NewCluster(overlay.Config{
		Ring:        ring,
		Links:       links,
		Seed:        7,
		CallTimeout: time.Second,
	}, tr)
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	src := rng.New(7)

	fmt.Printf("spawning %d peers...\n", peers)
	for cluster.Size() < peers {
		p := metric.Point(src.Intn(ringSize))
		if _, ok := cluster.Node(p); ok {
			continue
		}
		if _, err := cluster.AddNode(ctx, p); err != nil {
			log.Fatal(err)
		}
	}
	cluster.MaintainAll(ctx)

	// Publish a catalog: every peer shares a few files.
	files := []string{}
	for i := 0; i < 128; i++ {
		files = append(files, fmt.Sprintf("track-%03d.ogg", i))
	}
	fmt.Printf("publishing %d files from random peers...\n", len(files))
	for _, f := range files {
		publisher, err := cluster.RandomNode()
		if err != nil {
			log.Fatal(err)
		}
		owner, err := publisher.Put(ctx, f, fmt.Sprintf("held-by-peer-%d", publisher.ID()))
		if err != nil {
			log.Fatalf("publish %q: %v", f, err)
		}
		_ = owner // the index entry lives at the key's owner node
	}

	// Queries follow a Zipf popularity law (s=1), like measured
	// file-sharing workloads: a few hot tracks draw most lookups.
	zipf, err := rng.NewZipf(len(files), 1)
	if err != nil {
		log.Fatal(err)
	}
	lookup := func(tag string) {
		found, hops := 0, 0
		const queries = 128
		for i := 0; i < queries; i++ {
			file := files[zipf.Sample(src)-1]
			peer, err := cluster.RandomNode()
			if err != nil {
				log.Fatal(err)
			}
			_, h, err := peer.Lookup(ctx, overlay.HashKey(file, ring))
			if err != nil {
				continue
			}
			if _, ok, err := peer.Get(ctx, file); err == nil && ok {
				found++
				hops += h
			}
		}
		fmt.Printf("  %s: %d/%d zipf-weighted lookups resolved, mean %.1f hops\n",
			tag, found, queries, float64(hops)/float64(max(found, 1)))
	}
	fmt.Println("querying the healthy swarm:")
	lookup("healthy")

	// A quarter of the swarm vanishes (crash, not graceful leave).
	kill := peers / 4
	fmt.Printf("crashing %d peers...\n", kill)
	for i := 0; i < kill; i++ {
		pts := cluster.Nodes()
		if err := cluster.CrashNode(pts[src.Intn(len(pts))]); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Println("querying immediately (no healing yet):")
	lookup("degraded")

	cluster.MaintainAll(ctx)
	cluster.MaintainAll(ctx)
	fmt.Println("querying after self-healing:")
	lookup("healed")
	fmt.Println("(files whose index entry lived on a crashed peer are gone — routing")
	fmt.Println(" recovers, durability needs replication, as the paper notes in §7)")

	// Replication closes that gap: republish with 3 replicas, crash
	// again, and the catalog survives.
	fmt.Println("\nrepublishing with 3-way replication and crashing another batch...")
	for _, f := range files {
		publisher, err := cluster.RandomNode()
		if err != nil {
			log.Fatal(err)
		}
		if _, err := publisher.PutReplicated(ctx, f, "replicated", 3); err != nil {
			log.Fatalf("replicated publish %q: %v", f, err)
		}
	}
	for i := 0; i < 8 && cluster.Size() > 8; i++ {
		pts := cluster.Nodes()
		if err := cluster.CrashNode(pts[src.Intn(len(pts))]); err != nil {
			log.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		cluster.MaintainAll(ctx)
	}
	found := 0
	const queries = 128
	for i := 0; i < queries; i++ {
		file := files[zipf.Sample(src)-1]
		peer, err := cluster.RandomNode()
		if err != nil {
			log.Fatal(err)
		}
		if _, ok, err := peer.GetReplicated(ctx, file, 3); err == nil && ok {
			found++
		}
	}
	fmt.Printf("  replicated: %d/%d lookups resolved after a further crash wave\n", found, queries)
}
