// Churn: exercises the §5 incremental construction under continuous
// arrivals and departures, tracking how well the link-length
// distribution holds its inverse power-law shape and how routing
// performance evolves — the paper's self-stabilization story.
//
//	go run ./examples/churn
package main

import (
	"fmt"
	"log"
	"math"

	"repro/internal/construct"
	"repro/internal/core"
	"repro/internal/mathx"
	"repro/internal/rng"
)

func main() {
	const n = 1 << 12
	nw, err := core.New(core.Config{
		Nodes:        n,
		Construction: core.Heuristic,
		Replacement:  construct.InverseDistance,
		Seed:         11,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("grew a %d-node network with the §5 arrival protocol\n", n)
	report(nw, "initial")

	// Phase 1 — batch churn: 5 epochs, each replacing 10% of the
	// membership.
	src := rng.New(13)
	for epoch := 1; epoch <= 5; epoch++ {
		departures := 0
		for departures < n/10 {
			p := core.Point(src.Intn(n))
			if err := nw.RemoveNode(p); err != nil {
				continue // point currently vacant
			}
			departures++
			// A newcomer takes a (usually different) vacant point.
			for {
				q := core.Point(src.Intn(n))
				if err := nw.AddNode(q); err == nil {
					break
				}
			}
		}
		report(nw, fmt.Sprintf("after churn epoch %d (%d joins+leaves)", epoch, 2*departures))
	}

	// Phase 2 — Poisson churn: arrivals and departures as independent
	// processes over virtual time ("nodes arrive and depart at a high
	// rate", §1), probing routing quality along the way.
	fmt.Println("\nPoisson churn (rates: 40 joins + 40 leaves per unit time):")
	esrc := rng.New(17)
	vacant := func() (core.Point, bool) {
		for i := 0; i < 64; i++ {
			p := core.Point(esrc.Intn(n))
			if !nw.Graph().Exists(p) {
				return p, true
			}
		}
		return 0, false
	}
	occupied := func() (core.Point, bool) {
		for i := 0; i < 64; i++ {
			p := core.Point(esrc.Intn(n))
			if nw.Graph().Exists(p) {
				return p, true
			}
		}
		return 0, false
	}
	// Exponential gaps make each process Poisson; the probe ticks at a
	// fixed interval. The earliest of the three next instants runs.
	gap := func(rate float64) float64 {
		u := esrc.Float64()
		for u == 0 {
			u = esrc.Float64()
		}
		return -math.Log(u) / rate
	}
	const rate, probeEvery, horizon = 40.0, 2.0, 10.0
	nextArrive, nextDepart, nextProbe := gap(rate), gap(rate), probeEvery
	arrivals, departures, probes := 0, 0, 0
	for {
		t := math.Min(nextArrive, math.Min(nextDepart, nextProbe))
		if t > horizon {
			break
		}
		switch t {
		case nextArrive:
			nextArrive = t + gap(rate)
			arrivals++
			if p, ok := vacant(); ok {
				err = nw.AddNode(p)
			}
		case nextDepart:
			nextDepart = t + gap(rate)
			departures++
			// Keep the network from draining.
			if nw.Alive() > n/2 {
				if p, ok := occupied(); ok {
					err = nw.RemoveNode(p)
				}
			}
		default:
			nextProbe = t + probeEvery
			probes++
			report(nw, fmt.Sprintf("t=%.0f (alive %d)", t, nw.Alive()))
		}
		if err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("processed %d arrivals, %d departures, %d probes\n", arrivals, departures, probes)
}

// report prints routing quality and distribution fidelity.
func report(nw *core.Network, tag string) {
	const searches = 200
	delivered, hops := 0, 0
	for i := 0; i < searches; i++ {
		r, err := nw.RandomSearch(core.SearchOptions{})
		if err != nil {
			log.Fatal(err)
		}
		if r.Delivered {
			delivered++
			hops += r.Hops
		}
	}
	// Distribution error vs the ideal inverse power law (Figure 5's
	// metric).
	g := nw.Graph()
	h := g.LinkLengthHistogram()
	maxD := (g.Size() - 1) / 2
	hm := mathx.Harmonic(maxD)
	worst := 0.0
	for d := 1; d <= maxD; d++ {
		if e := math.Abs(h.Probability(d-1) - 1/(float64(d)*hm)); e > worst {
			worst = e
		}
	}
	fmt.Printf("  %-38s delivered %d/%d, mean %.1f hops, max distribution error %.4f\n",
		tag, delivered, searches, float64(hops)/float64(maxInt(delivered, 1)), worst)
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
