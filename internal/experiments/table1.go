package experiments

import (
	"fmt"

	"repro/internal/analysis"
	"repro/internal/failure"
	"repro/internal/graph"
	"repro/internal/metric"
	"repro/internal/rng"
	"repro/internal/route"
	"repro/internal/sim"
)

// twoSidedDirected is Table 1's routing model: greedy over a node's own
// long links only.
var twoSidedDirected = route.Options{DirectedOnly: true}

func init() {
	register(Experiment{
		ID:          "table1.nofail.l1",
		Artifact:    "Table 1, row 1 (no failures, ℓ=1): O(log²n) vs Ω(log²n/log log n)",
		Description: "sweep n, one long link per node, two-sided greedy, no failures",
		Run: func(p Params) (*sim.Table, error) {
			p = p.withDefaults(1<<14, 5, 100)
			t := sim.NewTable("Table 1 / no failures, ℓ=1",
				"n", "mean hops", "upper 2H_n^2", "lower Thm10", "hops/upper")
			for _, n := range sweepSizes(p.N) {
				stats, err := searchTrials(p, ideal(ringOf(n), 1), twoSidedDirected)
				if err != nil {
					return nil, err
				}
				upper := analysis.SingleLinkUpperBound(n)
				lower := analysis.Theorem10LowerBound(n, 1, false)
				t.AddValues(n, stats.MeanHops(), upper, lower, stats.MeanHops()/upper)
			}
			return t, nil
		},
	})

	register(Experiment{
		ID:          "table1.nofail.multi",
		Artifact:    "Table 1, row 2 (no failures, ℓ∈[1,lg n]): O(log²n/ℓ)",
		Description: "fixed n, sweep ℓ from 1 to lg n",
		Run: func(p Params) (*sim.Table, error) {
			p = p.withDefaults(1<<14, 5, 100)
			lg := p.lgLinks()
			t := sim.NewTable(fmt.Sprintf("Table 1 / no failures, multi-link (n=%d)", p.N),
				"links", "mean hops", "upper 8(1+lgn)H_n/l", "hops*l (flat => 1/l law)")
			for _, l := range doublings(lg) {
				stats, err := searchTrials(p, ideal(ringOf(p.N), l), twoSidedDirected)
				if err != nil {
					return nil, err
				}
				t.AddValues(l, stats.MeanHops(), analysis.MultiLinkUpperBound(p.N, l),
					stats.MeanHops()*float64(l))
			}
			return t, nil
		},
	})

	register(Experiment{
		ID:          "table1.nofail.detb",
		Artifact:    "Table 1, row 3 (no failures, deterministic): O(log n/log b)",
		Description: "Theorem 14 base-b digit overlay, sweep b",
		Run: func(p Params) (*sim.Table, error) {
			p = p.withDefaults(1<<14, 3, 200)
			t := sim.NewTable(fmt.Sprintf("Table 1 / deterministic base-b (n=%d)", p.N),
				"base b", "mean hops", "bound ceil(log_b n)", "max hops ok")
			for _, b := range []int{2, 4, 8, 16} {
				stats, err := searchTrials(p, built(ringOf(p.N), func(ring metric.Space, src *rng.Source) (*graph.Graph, error) {
					return graph.BuildDeterministic(ring, b, src)
				}), twoSidedDirected)
				if err != nil {
					return nil, err
				}
				bound := analysis.DeterministicUpperBound(p.N, b)
				t.AddValues(b, stats.MeanHops(), bound, stats.MeanHops() <= bound)
			}
			return t, nil
		},
	})

	register(Experiment{
		ID:          "table1.linkfail.multi",
		Artifact:    "Table 1, row 4 (link failure, ℓ∈[1,lg n]): O(log²n/pℓ)",
		Description: "links present independently w.p. p, sweep p",
		Run: func(p Params) (*sim.Table, error) {
			p = p.withDefaults(1<<14, 5, 100)
			links := p.lgLinks()
			t := sim.NewTable(fmt.Sprintf("Table 1 / link failures (n=%d, l=%d)", p.N, links),
				"p(link up)", "mean hops", "failed frac", "upper 8(1+lgn)H_n/pl", "hops*p (flat => 1/p law)")
			probs := []float64{1.0, 0.8, 0.6, 0.4, 0.2}
			cells, err := sweepTrials(p, p.Seed, ideal(ringOf(p.N), links), linksUp.at(probs...), routed(twoSidedDirected))
			if err != nil {
				return nil, err
			}
			for l, prob := range probs {
				stats := sim.Sum(cells[l][0])
				upper, err := analysis.LinkFailureUpperBound(p.N, links, prob)
				if err != nil {
					return nil, err
				}
				t.AddValues(prob, stats.MeanHops(), stats.FailedFraction(), upper,
					stats.MeanHops()*prob)
			}
			return t, nil
		},
	})

	register(Experiment{
		ID:          "table1.linkfail.detb",
		Artifact:    "Table 1, row 5 (link failure, deterministic): O(b·log n/p)",
		Description: "Theorem 16 powers-of-b overlay under link failures",
		Run: func(p Params) (*sim.Table, error) {
			p = p.withDefaults(1<<14, 3, 200)
			const b = 2
			t := sim.NewTable(fmt.Sprintf("Table 1 / deterministic link failures (n=%d, b=%d)", p.N, b),
				"p(link up)", "mean hops", "upper 1+2(b-q)H_n/p")
			probs := []float64{1.0, 0.8, 0.6, 0.4, 0.2}
			cells, err := sweepTrials(p, p.Seed, built(ringOf(p.N), func(ring metric.Space, _ *rng.Source) (*graph.Graph, error) {
				return graph.BuildDeterministicPowers(ring, b)
			}), linksUp.at(probs...), routed(twoSidedDirected))
			if err != nil {
				return nil, err
			}
			for l, prob := range probs {
				upper, err := analysis.DetLinkFailureUpperBound(p.N, b, prob)
				if err != nil {
					return nil, err
				}
				t.AddValues(prob, sim.Sum(cells[l][0]).MeanHops(), upper)
			}
			return t, nil
		},
	})

	register(Experiment{
		ID:          "table1.nodefail.binomial",
		Artifact:    "Table 1, row 6 / Theorem 17 (binomially present nodes): O(log²n)",
		Description: "each point hosts a node w.p. p; links drawn conditioned on presence",
		Run: func(p Params) (*sim.Table, error) {
			p = p.withDefaults(1<<14, 5, 100)
			t := sim.NewTable(fmt.Sprintf("Theorem 17 / binomial node presence (n=%d, l=1)", p.N),
				"p(present)", "mean hops", "failed frac", "upper 2H_n^2")
			for _, prob := range []float64{1.0, 0.8, 0.6, 0.4, 0.2} {
				stats, err := searchTrials(p, built(ringOf(p.N), func(ring metric.Space, src *rng.Source) (*graph.Graph, error) {
					mask, err := failure.BinomialPresence(p.N, prob, src)
					if err != nil {
						return nil, err
					}
					return graph.BuildIdealWithPresence(ring, graph.PaperConfig(1), mask, src)
				}), twoSidedDirected)
				if err != nil {
					return nil, err
				}
				t.AddValues(prob, stats.MeanHops(), stats.FailedFraction(),
					analysis.BinomialNodesUpperBound(p.N))
			}
			return t, nil
		},
	})

	register(Experiment{
		ID:          "table1.nodefail.general",
		Artifact:    "Theorem 18 (general node failures): O(log²n/(1−p)ℓ)",
		Description: "nodes fail w.p. p after linking; terminate policy",
		Run: func(p Params) (*sim.Table, error) {
			p = p.withDefaults(1<<14, 5, 100)
			links := p.lgLinks()
			t := sim.NewTable(fmt.Sprintf("Theorem 18 / node failures (n=%d, l=%d)", p.N, links),
				"p(fail)", "mean hops", "failed frac", "upper 8(1+lgn)H_n/(1-p)l")
			probs := []float64{0, 0.2, 0.4, 0.6}
			cells, err := sweepTrials(p, p.Seed, ideal(ringOf(p.N), links), crashProb.at(probs...), routed(twoSidedDirected))
			if err != nil {
				return nil, err
			}
			for l, prob := range probs {
				stats := sim.Sum(cells[l][0])
				upper, err := analysis.NodeFailureUpperBound(p.N, links, prob)
				if err != nil {
					return nil, err
				}
				t.AddValues(prob, stats.MeanHops(), stats.FailedFraction(), upper)
			}
			return t, nil
		},
	})
}

// sweepSizes returns the n values swept by scaling experiments, capped
// by the configured maximum.
func sweepSizes(max int) []int {
	sizes := []int{}
	for n := 1 << 10; n <= max; n <<= 1 {
		sizes = append(sizes, n)
	}
	if len(sizes) == 0 {
		sizes = append(sizes, max)
	}
	return sizes
}

// doublings returns 1, 2, 4, … up to max, then max itself: the ℓ values
// of the link sweeps and the log-spaced distances of the Figure 5 tables.
func doublings(max int) []int {
	vs := []int{}
	for v := 1; v <= max; v <<= 1 {
		vs = append(vs, v)
	}
	if vs[len(vs)-1] != max {
		vs = append(vs, max)
	}
	return vs
}
