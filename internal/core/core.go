// Package core is the library facade for the paper's fault-tolerant
// peer-to-peer routing system. It bundles the metric-space embedding,
// random-graph construction (directly sampled or the §5 incremental
// heuristic), greedy routing with dead-end recovery, and failure
// injection behind one Network type, so applications can use the system
// without touching the lower-level packages.
//
// A minimal session:
//
//	nw, err := core.New(core.Config{Nodes: 1 << 14, Seed: 42})
//	// handle err
//	res, err := nw.RandomSearch(core.SearchOptions{})
//	fmt.Println(res.Delivered, res.Hops)
//
// The same facade builds higher-dimensional networks (§7): Config{Dim:
// 2, Side: 128} embeds the overlay in a 128×128 torus, with every
// failure model, dead-end strategy, and statistic unchanged.
//
// Lower-level building blocks remain available for specialized use:
// package graph (overlay structure), route (routing policies), failure
// (damage models), construct (dynamic arrivals/departures), overlay
// (live message-passing nodes over in-memory or TCP transports), and
// analysis (the paper's bounds as formulas).
package core

import (
	"errors"
	"fmt"

	"repro/internal/construct"
	"repro/internal/failure"
	"repro/internal/graph"
	"repro/internal/mathx"
	"repro/internal/metric"
	"repro/internal/rng"
	"repro/internal/route"
)

// Point identifies a location of the metric space; re-exported so
// applications need not import internal/metric.
type Point = metric.Point

// SearchOptions configures routing; it is route.Options re-exported.
type SearchOptions = route.Options

// Result is the outcome of one search; it is route.Result re-exported.
type Result = route.Result

// Dead-end policies, re-exported from package route.
const (
	Terminate     = route.Terminate
	RandomReroute = route.RandomReroute
	Backtrack     = route.Backtrack
)

// Sidedness variants, re-exported from package route.
const (
	TwoSided = route.TwoSided
	OneSided = route.OneSided
)

// SpaceKind selects the 1-D metric space; Config.Dim >= 2 selects a
// torus instead.
type SpaceKind int

const (
	// Ring is the boundary-free circle (default; Chord-like).
	Ring SpaceKind = iota
	// Line is the paper's primary analysis space, with boundaries.
	Line
)

// Construction selects how the overlay is built.
type Construction int

const (
	// Ideal samples every node's links directly from the target
	// distribution — the networks §6 calls "ideal".
	Ideal Construction = iota
	// Heuristic grows the network one node at a time with the §5
	// arrival protocol — the networks §6 calls "constructed".
	Heuristic
)

// Config parameterizes a Network.
type Config struct {
	// Nodes is the number of grid points (and, initially, nodes). For
	// Dim >= 2 it may be left zero and is derived as Side^Dim; when
	// both are given they must agree.
	Nodes int
	// Dim is the dimension of the metric space. Zero and 1 select the
	// paper's 1-D spaces (Ring or Line, per Space); >= 2 selects a
	// Side^Dim torus, §7's higher-dimensional extension.
	Dim int
	// Side is the torus side length, used only when Dim >= 2.
	Side int
	// Links is ℓ, the long-link budget per node. Zero defaults to
	// ⌈lg Nodes⌉, the paper's experimental choice.
	Links int
	// Exponent is the link-length distribution exponent. Zero
	// defaults to the space's harmonic exponent — 1 in one dimension
	// (the paper's provably near-optimal value), Dim in general
	// (Kleinberg's d-dimensional optimum); set ExponentUniform for a
	// uniform distribution.
	Exponent float64
	// Space selects Ring (default) or Line for 1-D networks. A Dim of
	// 2 or more requires Ring (tori have no boundary).
	Space SpaceKind
	// Construction selects Ideal (default) or Heuristic.
	Construction Construction
	// Replacement is the §5 link-replacement strategy for Heuristic
	// construction; zero defaults to inverse-distance.
	Replacement construct.ReplacementStrategy
	// Seed drives all randomness; equal configs with equal seeds
	// build identical networks.
	Seed uint64
}

// ExponentUniform requests a uniform link-length distribution (the
// internal representation of exponent 0, which Config treats as
// "default" instead).
const ExponentUniform = -1

func (c Config) withDefaults() (Config, error) {
	if c.Dim == 0 {
		c.Dim = 1
	}
	if c.Dim < 1 {
		return c, fmt.Errorf("core: dimension must be >= 1, got %d", c.Dim)
	}
	if c.Dim == 1 {
		if c.Side != 0 {
			return c, fmt.Errorf("core: Side applies to Dim >= 2 only; set Nodes for 1-D networks")
		}
	} else {
		if c.Space == Line {
			return c, fmt.Errorf("core: Line is 1-D only; Dim %d needs the torus (Space: Ring)", c.Dim)
		}
		if c.Side < 2 {
			return c, fmt.Errorf("core: Dim %d needs Side >= 2, got %d", c.Dim, c.Side)
		}
		n := mathx.IPow(c.Side, c.Dim)
		if c.Nodes != 0 && c.Nodes != n {
			return c, fmt.Errorf("core: Nodes %d disagrees with Side^Dim = %d", c.Nodes, n)
		}
		c.Nodes = n
	}
	if c.Nodes < 2 {
		return c, fmt.Errorf("core: need at least 2 nodes, got %d", c.Nodes)
	}
	if c.Links == 0 {
		for v := c.Nodes - 1; v > 0; v >>= 1 {
			c.Links++
		}
	}
	if c.Links < 0 {
		return c, fmt.Errorf("core: negative link budget %d", c.Links)
	}
	switch c.Exponent {
	case 0:
		c.Exponent = float64(c.Dim)
	case ExponentUniform:
		c.Exponent = 0
	}
	return c, nil
}

// Network is a simulated overlay network: a built graph plus the
// machinery to search it, damage it, and (for Heuristic construction)
// change its membership. It is not safe for concurrent use: searches
// consume the network's rng stream. Concurrent workloads build one
// Network per goroutine (cheap, deterministic by seed) or use the
// lower-level route.Router, which is safe over an immutable graph.
type Network struct {
	cfg     Config
	space   metric.Space
	g       *graph.Graph
	builder *construct.Builder // non-nil for Heuristic construction
	src     *rng.Source
}

// New builds a network per cfg: a 1-D ring or line, or a d-dimensional
// torus, all through the same metric.Space pipeline.
func New(cfg Config) (*Network, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	var space metric.Space
	switch {
	case cfg.Dim >= 2:
		space, err = metric.NewTorus(cfg.Side, cfg.Dim)
	case cfg.Space == Line:
		space, err = metric.NewLine(cfg.Nodes)
	default:
		space, err = metric.NewRing(cfg.Nodes)
	}
	if err != nil {
		return nil, err
	}
	src := rng.New(cfg.Seed)
	nw := &Network{cfg: cfg, space: space, src: src}
	switch cfg.Construction {
	case Heuristic:
		if cfg.Exponent != float64(cfg.Dim) {
			return nil, errors.New("core: heuristic construction supports the harmonic exponent only (1 in 1-D, dim in general — the paper's §5 protocol)")
		}
		b, err := construct.NewBuilder(space, construct.Config{
			Links:    cfg.Links,
			Strategy: cfg.Replacement,
		}, src.Derive(1))
		if err != nil {
			return nil, err
		}
		for _, i := range src.Derive(2).Perm(cfg.Nodes) {
			if err := b.Add(Point(i)); err != nil {
				return nil, err
			}
		}
		nw.builder = b
		nw.g = b.Graph()
	default:
		g, err := graph.BuildIdeal(space, graph.BuildConfig{
			Links:    cfg.Links,
			Exponent: cfg.Exponent,
		}, src.Derive(1))
		if err != nil {
			return nil, err
		}
		nw.g = g
	}
	return nw, nil
}

// Config returns the resolved configuration.
func (nw *Network) Config() Config { return nw.cfg }

// Graph exposes the underlying overlay for advanced use (histograms,
// custom routing). Callers must not mutate membership behind a
// Heuristic network's back.
func (nw *Network) Graph() *graph.Graph { return nw.g }

// Space returns the metric space the network is embedded in.
func (nw *Network) Space() metric.Space { return nw.space }

// Alive returns the number of live nodes.
func (nw *Network) Alive() int { return nw.g.AliveCount() }

// Search routes a message from one live node to another and reports
// the outcome. Zero-valued options take the paper's defaults
// (two-sided greedy, terminate on dead ends).
func (nw *Network) Search(from, to Point, opt SearchOptions) (Result, error) {
	r := route.New(nw.g, opt)
	return r.Route(nw.src, from, to)
}

// RandomSearch routes between uniformly random live endpoints, the §6
// workload.
func (nw *Network) RandomSearch(opt SearchOptions) (Result, error) {
	from, ok := nw.g.RandomAlive(nw.src)
	if !ok {
		return Result{}, errors.New("core: no live nodes")
	}
	to, ok := nw.g.RandomAlive(nw.src)
	if !ok {
		return Result{}, errors.New("core: no live nodes")
	}
	if from == to {
		return Result{Delivered: true}, nil
	}
	return nw.Search(from, to, opt)
}

// FailNodes crashes an exact fraction of the live nodes uniformly at
// random (the §6 damage model). It returns the number crashed.
func (nw *Network) FailNodes(fraction float64) (int, error) {
	return failure.FailNodesFraction(nw.g, fraction, nw.src.Derive(3))
}

// AddNode runs the §5 arrival protocol for point p. It requires
// Heuristic construction.
func (nw *Network) AddNode(p Point) error {
	if nw.builder == nil {
		return errors.New("core: AddNode requires Construction: Heuristic")
	}
	return nw.builder.Add(p)
}

// RemoveNode runs the §5 departure protocol (links into the departed
// node are regenerated). It requires Heuristic construction.
func (nw *Network) RemoveNode(p Point) error {
	if nw.builder == nil {
		return errors.New("core: RemoveNode requires Construction: Heuristic")
	}
	return nw.builder.Remove(p)
}

// Stats summarizes the network state.
type Stats struct {
	Nodes      int     // grid points
	Alive      int     // live nodes
	LongLinks  int     // total long links
	MeanDegree float64 // long links per existing node
}

// Stats returns a snapshot of the network state.
func (nw *Network) Stats() Stats {
	return Stats{
		Nodes:      nw.g.Size(),
		Alive:      nw.g.AliveCount(),
		LongLinks:  nw.g.LongLinkCount(),
		MeanDegree: nw.g.AvgOutDegree(),
	}
}
