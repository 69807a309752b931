package graph

import (
	"fmt"

	"repro/internal/metric"
)

// NewEmpty returns a graph over space in which no grid point hosts a
// node yet. Nodes arrive later through AddNode — the starting state of
// the §5 incremental construction.
func NewEmpty(space metric.Space) *Graph {
	return &Graph{
		space: space,
		nodes: make([]node, space.Size()),
		flags: make([]uint8, space.Size()),
	}
}

// AddNode marks point p as hosting a live node. It returns an error if
// p is out of range or already hosts a node. It drops the neighbour
// rows: the short links of the points around p now end at p.
func (g *Graph) AddNode(p metric.Point) error {
	if !g.inRange(p) {
		return fmt.Errorf("graph: AddNode(%d) out of range [0,%d)", p, len(g.nodes))
	}
	if g.flags[p]&flagExists != 0 {
		return fmt.Errorf("graph: node %d already exists", p)
	}
	g.flags[p] = flagExists
	g.aliveCount++
	g.dropRows()
	return nil
}

// RemoveNode deletes the node at p entirely: its outgoing long links are
// dropped and the point stops hosting a node (unlike Fail, which models
// a crash that leaves the point occupied but dead). Every link from
// another node toward p is taken down and leaves the reverse index; the
// construction heuristic repairs those slots. It returns an error if p
// hosts no node. It drops the neighbour rows.
func (g *Graph) RemoveNode(p metric.Point) error {
	if !g.Exists(p) {
		return fmt.Errorf("graph: RemoveNode(%d): no such node", p)
	}
	if g.flags[p]&flagFailed == 0 {
		g.aliveCount--
	}
	nd := &g.nodes[p]
	for i, lk := range nd.long {
		if lk.Up {
			g.dropRev(lk.To, ref(p, i))
		}
	}
	// Take every incoming link down: the connection to a departed
	// node is gone for good. The slot stays in its owner's link list
	// (pointing at the vacated point, down) until the §5 repair
	// redirects it, and SetLongUp refuses to raise it — so a later
	// arrival at the same point does not silently resurrect stale
	// connections.
	for _, ref := range nd.rev {
		g.nodes[ref.from].long[ref.idx].Up = false
	}
	*nd = node{}
	g.flags[p] = 0
	g.dropRows()
	return nil
}
