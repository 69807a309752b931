// Package construct implements the dynamic graph-construction heuristic
// of §5 of the paper.
//
// Nodes (points of the metric space) arrive one at a time. An arriving
// point v:
//
//  1. draws its outgoing long links from the inverse power-law
//     distribution with exponent 1, redirecting any link aimed at an
//     absent point to the nearest present one (the "basin of
//     attraction" rule);
//  2. estimates how many incoming links it "should" have by drawing
//     from a Poisson distribution with rate ℓ;
//  3. selects that many earlier points, again ∝ 1/d, and asks each for
//     an incoming link.
//
// A solicited node u with long links at distances d₁…d_k accepts the
// request from v at distance d_{k+1} with probability
// p_{k+1}/Σ_{j=1..k+1} p_j (p_i = 1/d_i), and on acceptance redirects
// one of its existing links to v — chosen with probability
// p_i/Σ_{j=1..k} p_j (strategy InverseDistance, the paper's default,
// after Sarshar et al.) or simply its oldest link (strategy Oldest, the
// alternative §5 reports performs nearly as well). The same machinery
// regenerates links when a node departs.
package construct

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/metric"
	"repro/internal/rng"
)

// ReplacementStrategy selects which existing link a solicited node
// redirects toward a newcomer.
type ReplacementStrategy int

const (
	// InverseDistance redirects link i with probability proportional
	// to 1/d_i — the paper's strategy, preserving the power-law
	// invariant in expectation.
	InverseDistance ReplacementStrategy = iota + 1
	// Oldest redirects the link with the smallest creation sequence
	// number.
	Oldest
)

// String returns the strategy name used in experiment output.
func (s ReplacementStrategy) String() string {
	switch s {
	case InverseDistance:
		return "inverse-distance"
	case Oldest:
		return "oldest-link"
	default:
		return fmt.Sprintf("strategy(%d)", int(s))
	}
}

// Config parameterizes the builder.
type Config struct {
	// Links is ℓ, the number of outgoing long links per node.
	Links int
	// Strategy defaults to InverseDistance when zero.
	Strategy ReplacementStrategy
}

func (c Config) withDefaults() Config {
	if c.Strategy == 0 {
		c.Strategy = InverseDistance
	}
	return c
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Links < 0 {
		return fmt.Errorf("construct: negative link count %d", c.Links)
	}
	switch c.withDefaults().Strategy {
	case InverseDistance, Oldest:
		return nil
	default:
		return fmt.Errorf("construct: unknown replacement strategy %d", c.Strategy)
	}
}

// Builder grows and shrinks an overlay incrementally. It is not safe
// for concurrent use.
type Builder struct {
	g       *graph.Graph
	cfg     Config
	src     *rng.Source
	sampler metric.LinkSampler
	dim     int
	// inLinks is a reverse index: inLinks[v] lists nodes that (as of
	// the last time we touched them) held a long link to v. Entries go
	// stale when links are redirected elsewhere; readers re-verify
	// against the graph, so staleness only costs a skipped scan entry.
	inLinks map[metric.Point][]metric.Point
	dists   []int // solicit's scratch: the solicited node's link distances
}

// NewBuilder returns a Builder over an initially empty space of any
// dimension. Link targets (and the acceptance/replacement weights of
// the §5 protocol) use the space's harmonic exponent — 1/d(u,v) in one
// dimension, 1/d(u,v)^dim in general, after Kleinberg's d-dimensional
// small-world theorem.
func NewBuilder(space metric.Space, cfg Config, src *rng.Source) (*Builder, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	sampler, err := space.NewLinkSampler(float64(space.Dim()))
	if err != nil {
		return nil, err
	}
	return &Builder{
		g:       graph.NewEmpty(space),
		cfg:     cfg.withDefaults(),
		src:     src,
		sampler: sampler,
		dim:     space.Dim(),
		inLinks: make(map[metric.Point][]metric.Point),
	}, nil
}

// Graph exposes the overlay under construction. Callers may route over
// it and inject failures, but must not add or remove nodes behind the
// Builder's back.
func (b *Builder) Graph() *graph.Graph { return b.g }

// Size returns the number of nodes currently present.
func (b *Builder) Size() int { return b.g.AliveCount() }

// Add runs the §5 arrival protocol for point p.
func (b *Builder) Add(p metric.Point) error {
	if err := b.g.AddNode(p); err != nil {
		return err
	}
	// (1) Outgoing links.
	for k := 0; k < b.cfg.Links; k++ {
		if to, ok := b.sampleExisting(p); ok {
			if err := b.addLink(p, to); err != nil {
				return err
			}
		}
	}
	// (2) Estimate the in-degree this node "should" have.
	want := b.src.Poisson(float64(b.cfg.Links))
	// (3) Solicit that many earlier points for incoming links.
	for k := 0; k < want; k++ {
		u, ok := b.sampleExisting(p)
		if !ok {
			break
		}
		if err := b.solicit(u, p); err != nil {
			return err
		}
	}
	return nil
}

// Remove runs the departure protocol: the node leaves, and every node
// that held a long link to it redraws that link (the §5 heuristic
// "can be used for regeneration of links when a node crashes").
func (b *Builder) Remove(p metric.Point) error {
	holders := b.inLinks[p]
	delete(b.inLinks, p)
	if err := b.g.RemoveNode(p); err != nil {
		return err
	}
	for _, u := range holders {
		if !b.g.Exists(u) {
			continue
		}
		for i, lk := range b.g.Long(u) {
			if lk.To != p {
				continue
			}
			// Redraw this link from the distribution.
			to, ok := b.sampleExisting(u)
			if !ok {
				continue
			}
			if err := b.g.ReplaceLong(u, i, to); err != nil {
				return err
			}
			b.inLinks[to] = append(b.inLinks[to], u)
		}
	}
	return nil
}

// sampleExisting draws a link target for node p: a point sampled from
// the inverse power law, redirected to the nearest present node other
// than p itself. ok is false when p is the only node.
func (b *Builder) sampleExisting(p metric.Point) (metric.Point, bool) {
	const retries = 8
	for i := 0; i < retries; i++ {
		target, ok := b.sampler.Sample(p, b.src)
		if !ok {
			return 0, false
		}
		q, ok := b.nearestOther(target, p)
		if ok {
			return q, true
		}
	}
	return 0, false
}

// nearestOther returns the present point nearest to target, excluding
// self. When the basin lands exactly on self, the closest present short
// neighbour of self (scanning −axis before +axis, nearer to target
// wins) is used instead.
func (b *Builder) nearestOther(target, self metric.Point) (metric.Point, bool) {
	q, ok := b.g.NearestExisting(target)
	if !ok {
		return 0, false
	}
	if q != self {
		return q, true
	}
	sp := b.g.Space()
	best, bestD, found := metric.Point(0), 0, false
	for axis := 1; axis <= b.dim; axis++ {
		for _, dir := range [2]int{-axis, +axis} {
			cand, ok := b.g.ShortNeighbor(self, dir)
			if !ok || cand == self {
				continue
			}
			if d := sp.Distance(cand, target); !found || d < bestD {
				best, bestD, found = cand, d, true
			}
		}
	}
	return best, found
}

// addLink records a long link and indexes it.
func (b *Builder) addLink(from, to metric.Point) error {
	if err := b.g.AddLong(from, to); err != nil {
		return err
	}
	b.inLinks[to] = append(b.inLinks[to], from)
	return nil
}

// weight returns the §5 link weight of distance d: d^(−dim), the
// harmonic member of the power-law family for a dim-dimensional space.
func weight(dim, d int) float64 {
	w := float64(d)
	for i := 1; i < dim; i++ {
		w *= float64(d)
	}
	return 1 / w
}

// solicitRule is the §5 redirection rule behind Builder.solicit. A node
// of a dim-dimensional space whose long links span distances dists
// (budget links) is asked for a link by a newcomer at distance dNew;
// link weights are p = 1/d^dim. It returns the slot the newcomer takes
// and whether it takes one: len(dists) below budget (in the paper's
// steady state every node owns exactly ℓ links, so the replacement rule
// assumes a full set and early growth tops up first); otherwise, with
// probability p_new/(p_new + Σp), the victim — drawn ∝ p under
// InverseDistance, or −1 under any other strategy, whose pick needs
// more than distances. It draws src.Bool once at budget and src.Float64
// once more only for an InverseDistance victim.
func solicitRule(src *rng.Source, s ReplacementStrategy, links, dim, dNew int, dists []int) (slot int, accept bool) {
	if len(dists) < links {
		return len(dists), true
	}
	if len(dists) == 0 {
		return 0, false
	}
	pNew := weight(dim, dNew)
	sum := pNew
	for _, d := range dists {
		sum += weight(dim, d)
	}
	if !src.Bool(pNew / sum) {
		return 0, false
	}
	if s != InverseDistance {
		return -1, true
	}
	var mass float64
	for _, d := range dists {
		mass += weight(dim, d)
	}
	r := src.Float64() * mass
	for i, d := range dists {
		r -= weight(dim, d)
		if r <= 0 {
			return i, true
		}
	}
	return len(dists) - 1, true
}

// solicit asks node u to redirect one of its links to newcomer v by
// solicitRule.
func (b *Builder) solicit(u, v metric.Point) error {
	if u == v {
		return nil
	}
	sp := b.g.Space()
	long := b.g.Long(u)
	b.dists = b.dists[:0]
	for _, lk := range long {
		b.dists = append(b.dists, sp.Distance(u, lk.To))
	}
	slot, ok := solicitRule(b.src, b.cfg.Strategy, b.cfg.Links, b.dim, sp.Distance(u, v), b.dists)
	if !ok {
		return nil // u declines to redirect
	}
	if slot == len(long) {
		return b.addLink(u, v)
	}
	if slot < 0 { // Oldest: the smallest creation sequence number
		for i, lk := range long {
			if slot < 0 || lk.Seq < long[slot].Seq {
				slot = i
			}
		}
	}
	if err := b.g.ReplaceLong(u, slot, v); err != nil {
		return err
	}
	b.inLinks[v] = append(b.inLinks[v], u)
	return nil
}

// Grow builds a complete overlay by adding every point of the space in
// a uniformly random arrival order. It is the setup used by Figure 5
// and Figure 7's "constructed network".
func Grow(space metric.Space, cfg Config, src *rng.Source) (*graph.Graph, error) {
	b, err := NewBuilder(space, cfg, src)
	if err != nil {
		return nil, err
	}
	for _, i := range src.Perm(space.Size()) {
		if err := b.Add(metric.Point(i)); err != nil {
			return nil, err
		}
	}
	return b.Graph(), nil
}
