package overlay

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"repro/internal/metric"
	"repro/internal/rng"
	"repro/internal/transport"
)

// Cluster is a convenience harness that owns a set of nodes on one
// transport — the in-process equivalent of the paper's application-level
// simulation, and the backbone of the examples. It is not safe for
// concurrent use; the nodes it manages are.
type Cluster struct {
	cfg   Config
	tr    transport.Transport
	nodes map[metric.Point]*Node
	boot  metric.Point // a known-live entry point
	src   *rng.Source
}

// NewCluster returns an empty cluster over tr.
func NewCluster(cfg Config, tr transport.Transport) (*Cluster, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Cluster{
		cfg:   cfg,
		tr:    tr,
		nodes: make(map[metric.Point]*Node),
		src:   rng.New(cfg.Seed),
	}, nil
}

// Size returns the number of managed nodes.
func (c *Cluster) Size() int { return len(c.nodes) }

// Node returns the managed node at p, if any.
func (c *Cluster) Node(p metric.Point) (*Node, bool) {
	n, ok := c.nodes[p]
	return n, ok
}

// Nodes returns the points of all managed nodes, sorted so callers
// iterate deterministically.
func (c *Cluster) Nodes() []metric.Point {
	pts := make([]metric.Point, 0, len(c.nodes))
	for p := range c.nodes {
		pts = append(pts, p)
	}
	sort.Slice(pts, func(i, j int) bool { return pts[i] < pts[j] })
	return pts
}

// AddNode creates a node at p and joins it to the network (the first
// node becomes the bootstrap).
func (c *Cluster) AddNode(ctx context.Context, p metric.Point) (*Node, error) {
	if _, exists := c.nodes[p]; exists {
		return nil, fmt.Errorf("overlay: cluster already has node %d", p)
	}
	cfg := c.cfg
	cfg.Seed = c.src.Uint64()
	n, err := NewNode(p, cfg, c.tr)
	if err != nil {
		return nil, err
	}
	if len(c.nodes) == 0 {
		c.nodes[p] = n
		c.boot = p
		return n, nil
	}
	if err := n.Join(ctx, c.boot); err != nil {
		n.Close()
		return nil, fmt.Errorf("overlay: join failed: %w", err)
	}
	c.nodes[p] = n
	return n, nil
}

// CrashNode kills the node at p without any departure protocol,
// modelling the crash failures of §6.
func (c *Cluster) CrashNode(p metric.Point) error {
	n, ok := c.nodes[p]
	if !ok {
		return fmt.Errorf("overlay: no node %d", p)
	}
	delete(c.nodes, p)
	n.Close()
	if c.boot == p {
		c.electBootstrap()
	}
	return nil
}

// electBootstrap picks the next entry point: the lowest live point, so
// equal seeds and operation histories join through equal nodes.
func (c *Cluster) electBootstrap() {
	if pts := c.Nodes(); len(pts) > 0 {
		c.boot = pts[0]
	}
}

// RandomNode returns a uniformly random managed node (deterministic
// given the cluster seed and operation history).
func (c *Cluster) RandomNode() (*Node, error) {
	if len(c.nodes) == 0 {
		return nil, errors.New("overlay: empty cluster")
	}
	pts := c.Nodes()
	return c.nodes[pts[c.src.Intn(len(pts))]], nil
}

// MaintainAll runs one maintenance pass on every node, in point order —
// the cluster equivalent of one self-healing round, deterministic for
// reproducible tests.
func (c *Cluster) MaintainAll(ctx context.Context) {
	for _, p := range c.Nodes() {
		c.nodes[p].MaintainOnce(ctx)
	}
}

// Close shuts every node down.
func (c *Cluster) Close() {
	for p, n := range c.nodes {
		n.Close()
		delete(c.nodes, p)
	}
}
