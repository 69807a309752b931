package graph

import (
	"fmt"

	"repro/internal/mathx"
	"repro/internal/metric"
	"repro/internal/rng"
)

// BuildConfig parameterizes the ideal (directly sampled) random-graph
// builders.
type BuildConfig struct {
	// Links is the number ℓ of long-distance links per node. The
	// paper's randomized strategy draws them independently with
	// replacement (Theorem 13).
	Links int
	// Exponent is the inverse power-law exponent of the link-length
	// distribution, used literally: the space's dimension d is the
	// paper's distribution generalized à la Kleinberg (Pr[v] ∝ 1/d(u,v)
	// in 1-D), 0 is uniform, etc. How it is sampled is the space's
	// business (metric.Space.NewLinkSampler); 1-D spaces use an O(1)
	// analytic sampler for exponent 1 and a shared table otherwise.
	// Use PaperConfig (1-D) or PaperConfigFor to get the paper's
	// defaults.
	Exponent float64
}

// PaperConfig returns the configuration the paper analyzes in one
// dimension: links long links per node drawn from the inverse power law
// with exponent 1.
func PaperConfig(links int) BuildConfig {
	return BuildConfig{Links: links, Exponent: 1}
}

// PaperConfigFor returns the paper's configuration generalized to
// space: exponent equal to the dimension, the harmonic (routing-optimal)
// member of the power-law family for any d.
func PaperConfigFor(space metric.Space, links int) BuildConfig {
	return BuildConfig{Links: links, Exponent: float64(space.Dim())}
}

// Validate checks the configuration.
func (c BuildConfig) Validate() error {
	if c.Links < 0 {
		return fmt.Errorf("graph: negative link count %d", c.Links)
	}
	return nil
}

// BuildIdeal constructs the paper's idealized overlay over space: every
// grid point hosts a node; each node gets cfg.Links long links whose
// targets follow the inverse power law with cfg.Exponent (directions
// chosen by the mass on each side of a 1-D space — so line boundary
// nodes are handled exactly — and uniformly on a sphere of a torus).
func BuildIdeal(space metric.Space, cfg BuildConfig, src *rng.Source) (*Graph, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	g := New(space)
	if err := populateLinks(g, cfg, src, nil); err != nil {
		return nil, err
	}
	return g, nil
}

// BuildIdealWithPresence constructs the binomial-node-model overlay of
// §4.3.4.1: only present points host nodes, and every link sampled
// toward an absent point is redirected to the nearest present node (the
// basin-of-attraction rule), so links connect only existing nodes.
func BuildIdealWithPresence(space metric.Space, cfg BuildConfig, present []bool, src *rng.Source) (*Graph, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	g, err := NewWithPresence(space, present)
	if err != nil {
		return nil, err
	}
	redirect := func(g *Graph, from, target metric.Point) (metric.Point, bool) {
		q, ok := g.NearestExisting(target)
		if !ok || q == from {
			return 0, false
		}
		return q, true
	}
	if err := populateLinks(g, cfg, src, redirect); err != nil {
		return nil, err
	}
	return g, nil
}

// populateLinks draws cfg.Links long links for every existing node of
// a graph that has none yet, from the space's target sampler. redirect,
// when non-nil, maps a sampled target to the point actually linked (or
// rejects it); the sample is retried a bounded number of times on
// rejection.
//
// Every link table is carved out of one slab, each with capacity
// cfg.Links exactly, so an AddLong beyond it later moves that node's
// table alone and can never write into its neighbour's slots. The
// reverse index is built once at the end (indexLinks) instead of link
// by link; nothing in between reads it.
func populateLinks(g *Graph, cfg BuildConfig, src *rng.Source, redirect func(*Graph, metric.Point, metric.Point) (metric.Point, bool)) error {
	if cfg.Links == 0 {
		return nil
	}
	sampler, err := g.space.NewLinkSampler(cfg.Exponent)
	if err != nil {
		return err
	}
	existing := 0
	for _, f := range g.flags {
		if f&flagExists != 0 {
			existing++
		}
	}
	slab := make([]Link, existing*cfg.Links)
	for i := 0; i < g.Size(); i++ {
		p := metric.Point(i)
		if !g.Exists(p) {
			continue
		}
		g.nodes[p].long, slab = slab[:0:cfg.Links], slab[cfg.Links:]
		for k := 0; k < cfg.Links; k++ {
			const retries = 32
			linked := false
			for attempt := 0; attempt < retries; attempt++ {
				target, ok := sampler.Sample(p, src)
				if !ok {
					break
				}
				if redirect != nil {
					target, ok = redirect(g, p, target)
					if !ok {
						continue
					}
				}
				if err := g.appendLong(p, target); err != nil {
					return err
				}
				linked = true
				break
			}
			if !linked && g.AliveCount() > 1 {
				// Fall back to a short-range link so the degree
				// invariant holds even in pathological presence
				// masks, scanning every grid direction (a torus row
				// can be empty while another axis has a neighbour).
			fallback:
				for axis := 1; axis <= g.space.Dim(); axis++ {
					for _, dir := range [2]int{+axis, -axis} {
						if q, ok := g.ShortNeighbor(p, dir); ok {
							if err := g.appendLong(p, q); err != nil {
								return err
							}
							break fallback
						}
					}
				}
			}
		}
	}
	g.indexLinks()
	return nil
}

// indexLinks builds the reverse index of a graph whose links are all
// up and not indexed yet: in-degrees are counted, every node's rev is
// carved from one slab, and the entries go in by (from, slot) — the
// order link-by-link AddLong calls in populateLinks' loop would have
// produced, which AppendNeighbors' in-link order (and so every routing
// tie-break) depends on. Capacity is exact, for the reason given at
// populateLinks.
func (g *Graph) indexLinks() {
	indeg := make([]int, len(g.nodes))
	total := 0
	for i := range g.nodes {
		for _, lk := range g.nodes[i].long {
			indeg[lk.To]++
		}
		total += len(g.nodes[i].long)
	}
	slab := make([]revRef, total)
	for i := range g.nodes {
		g.nodes[i].rev, slab = slab[:0:indeg[i]], slab[indeg[i]:]
	}
	for i := range g.nodes {
		for slot, lk := range g.nodes[i].long {
			rev := &g.nodes[lk.To].rev
			*rev = append(*rev, revRef{from: metric.Point(i), idx: slot})
		}
	}
}

// BuildDeterministic constructs the deterministic overlay of Theorem 14:
// with base b, every node links to the points at distances j·b^i for
// j ∈ 1..b−1 and i ∈ 0..⌈log_b n⌉−1 along both directions of every axis
// (links that would leave a line are dropped). Routing over this graph
// eliminates one base-b digit of the remaining per-axis distance per
// hop.
func BuildDeterministic(space metric.Space, b int, src *rng.Source) (*Graph, error) {
	if b < 2 {
		return nil, fmt.Errorf("graph: deterministic base must be >= 2, got %d", b)
	}
	g := New(space)
	n := space.Size()
	levels := mathx.CeilLog(n, b)
	for i := 0; i < n; i++ {
		p := metric.Point(i)
		for lvl := 0; lvl < levels; lvl++ {
			step := mathx.IPow(b, lvl)
			for j := 1; j < b; j++ {
				d := j * step
				if d >= n {
					break
				}
				for axis := 1; axis <= space.Dim(); axis++ {
					for _, dir := range [2]int{+axis, -axis} {
						q, ok := space.Offset(p, dir, d)
						if ok && q != p {
							if err := g.AddLong(p, q); err != nil {
								return nil, err
							}
						}
					}
				}
			}
		}
	}
	return g, nil
}

// BuildDeterministicPowers constructs the simplified deterministic
// overlay of Theorem 16: links at distances b^0, b^1, …, b^⌊log_b n⌋
// only (both directions of every axis). This is the variant the paper
// analyzes under link failures.
func BuildDeterministicPowers(space metric.Space, b int) (*Graph, error) {
	if b < 2 {
		return nil, fmt.Errorf("graph: deterministic base must be >= 2, got %d", b)
	}
	g := New(space)
	n := space.Size()
	for i := 0; i < n; i++ {
		p := metric.Point(i)
		for step := 1; step < n; step *= b {
			for axis := 1; axis <= space.Dim(); axis++ {
				for _, dir := range [2]int{+axis, -axis} {
					q, ok := space.Offset(p, dir, step)
					if ok && q != p {
						if err := g.AddLong(p, q); err != nil {
							return nil, err
						}
					}
				}
			}
			if step > n/b {
				break
			}
		}
	}
	return g, nil
}
