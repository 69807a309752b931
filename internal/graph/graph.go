// Package graph implements the paper's overlay structure: nodes embedded
// at the grid points of a metric space (the 1-D line and ring of the
// paper's analysis, or a d-dimensional torus per §7), each connected to
// its grid neighbours (short links, always present per §4.3.3 — two per
// axis) and to a set of long-distance links drawn from a configurable
// distribution.
//
// The graph is a value-type store of links plus liveness bookkeeping;
// the routing algorithms live in package route, failure models in
// package failure, and the dynamic construction heuristic of §5 in
// package construct.
package graph

import (
	"fmt"

	"repro/internal/mathx"
	"repro/internal/metric"
	"repro/internal/rng"
)

// Link is a directed long-distance link. Up distinguishes a link that
// exists in the overlay from one whose underlying connection has failed
// (§4.3.3's independent link-failure model). Seq records creation order
// for the "replace oldest link" strategy of §5.
type Link struct {
	To  metric.Point
	Up  bool
	Seq int64
}

// Per-node liveness bits, kept in Graph.flags beside nodes rather than
// in the node struct: one byte per grid point stays cache-resident at
// sizes where the link tables do not, and the greedy step tests every
// candidate's liveness.
const (
	flagExists    uint8 = 1 << iota // the point hosts a node at all (§4.3.4.1 binomial model)
	flagFailed                      // the node crashed after the graph was built
	flagMalicious                   // Byzantine: alive but silently drops messages
)

type node struct {
	long []Link
	// rev is the exact reverse index of incoming long links: it holds
	// {q, i} exactly once for every up link nodes[q].long[i] with
	// To == this point, and nothing else. Exactness rests on a second
	// invariant — both endpoints of an up link host a node — and both
	// are kept by the mutators alone (AddLong, ReplaceLong, SetLongUp,
	// AddNode, RemoveNode), so a reader takes ref.from as a neighbour
	// without loading the foreign link table. CheckReverseIndex
	// verifies both by brute force.
	rev []revRef
}

// revRef locates one incoming long link: nodes[from].long[idx].
type revRef struct {
	from metric.Point
	idx  int
}

// Graph is an overlay network over a metric space of any dimension.
// It is not safe for concurrent mutation; experiment code builds one
// graph per goroutine.
type Graph struct {
	space      metric.Space
	nodes      []node
	flags      []uint8 // flagExists|flagFailed|flagMalicious per grid point
	aliveCount int
	seq        int64
	// nearestMark/nearestQueue are reusable scratch for the d >= 2
	// nearest-node BFS (a point is visited when its mark equals
	// nearestGen). NearestExisting and NearestAlive are §5 construction
	// and repair machinery and share the Graph's single-goroutine
	// mutation contract.
	nearestMark  []uint32
	nearestQueue []metric.Point
	nearestGen   uint32
}

// New returns a graph over space in which every grid point hosts a node
// and no long links exist yet.
func New(space metric.Space) *Graph {
	g := NewEmpty(space)
	for i := range g.flags {
		g.flags[i] = flagExists
	}
	g.aliveCount = len(g.nodes)
	return g
}

// NewWithPresence returns a graph in which point i hosts a node exactly
// when present[i] is true (the binomially-distributed node model of
// §4.3.4.1). It returns an error if len(present) != space.Size() or if
// no point is present.
func NewWithPresence(space metric.Space, present []bool) (*Graph, error) {
	if len(present) != space.Size() {
		return nil, fmt.Errorf("graph: presence mask has %d entries for space of size %d",
			len(present), space.Size())
	}
	g := NewEmpty(space)
	for i, p := range present {
		if p {
			g.flags[i] = flagExists
			g.aliveCount++
		}
	}
	if g.aliveCount == 0 {
		return nil, fmt.Errorf("graph: presence mask admits no nodes")
	}
	return g, nil
}

// Space returns the underlying metric space.
func (g *Graph) Space() metric.Space { return g.space }

// Size returns the number of grid points (present or not).
func (g *Graph) Size() int { return g.space.Size() }

// Exists reports whether point p hosts a node (failed or not).
func (g *Graph) Exists(p metric.Point) bool {
	return g.inRange(p) && g.flags[p]&flagExists != 0
}

// Alive reports whether point p hosts a live node.
func (g *Graph) Alive(p metric.Point) bool {
	return g.inRange(p) && g.flags[p]&(flagExists|flagFailed) == flagExists
}

// AliveCount returns the number of live nodes.
func (g *Graph) AliveCount() int { return g.aliveCount }

func (g *Graph) inRange(p metric.Point) bool { return p >= 0 && int(p) < len(g.nodes) }

// Fail marks the node at p as crashed. Failing an absent or already
// failed node is a no-op. It returns true if the node transitioned from
// alive to failed.
func (g *Graph) Fail(p metric.Point) bool {
	if !g.Alive(p) {
		return false
	}
	g.flags[p] |= flagFailed
	g.aliveCount--
	return true
}

// Revive clears the failed flag of the node at p. It returns true if
// the node transitioned from failed to alive.
func (g *Graph) Revive(p metric.Point) bool {
	if !g.inRange(p) || g.flags[p]&(flagExists|flagFailed) != flagExists|flagFailed {
		return false
	}
	g.flags[p] &^= flagFailed
	g.aliveCount++
	return true
}

// SetMalicious marks the live node at p as Byzantine: it participates
// in the overlay (others link and route to it) but silently drops every
// message it receives. Used by the §7-motivated robustness extension.
func (g *Graph) SetMalicious(p metric.Point, malicious bool) error {
	if !g.Alive(p) {
		return fmt.Errorf("graph: SetMalicious(%d): not a live node", p)
	}
	if malicious {
		g.flags[p] |= flagMalicious
	} else {
		g.flags[p] &^= flagMalicious
	}
	return nil
}

// Malicious reports whether p hosts a Byzantine node.
func (g *Graph) Malicious(p metric.Point) bool {
	return g.inRange(p) && g.flags[p]&flagMalicious != 0
}

// AddLong appends a long-distance link from p to to. Both endpoints
// must host a node and differ; duplicate links are permitted (the
// paper's randomized strategy samples with replacement, Theorem 13).
func (g *Graph) AddLong(p, to metric.Point) error {
	if err := g.appendLong(p, to); err != nil {
		return err
	}
	g.nodes[to].rev = append(g.nodes[to].rev, revRef{from: p, idx: len(g.nodes[p].long) - 1})
	return nil
}

// appendLong is AddLong without the reverse-index entry, for
// populateLinks, which indexes every link at once when it is done.
func (g *Graph) appendLong(p, to metric.Point) error {
	if err := g.checkLink(p, to); err != nil {
		return err
	}
	g.seq++
	g.nodes[p].long = append(g.nodes[p].long, Link{To: to, Up: true, Seq: g.seq})
	return nil
}

// checkLink rejects a long link the reverse-index invariant cannot
// hold: an endpoint out of range or hosting no node, or a self-link.
func (g *Graph) checkLink(p, to metric.Point) error {
	if !g.inRange(p) || !g.inRange(to) {
		return fmt.Errorf("graph: link %d->%d out of range [0,%d)", p, to, len(g.nodes))
	}
	if p == to {
		return fmt.Errorf("graph: self-link at %d", p)
	}
	if g.flags[p]&g.flags[to]&flagExists == 0 {
		return fmt.Errorf("graph: link %d->%d has an endpoint that hosts no node", p, to)
	}
	return nil
}

// Long returns the long-link slice of p. The caller must not mutate it;
// use ReplaceLong or SetLongUp for modifications.
func (g *Graph) Long(p metric.Point) []Link {
	if !g.inRange(p) {
		return nil
	}
	return g.nodes[p].long
}

// ReplaceLong redirects p's i-th long link to point to, which must host
// a node, stamping a fresh sequence number. It is the primitive behind
// §5's link-redirection heuristic.
func (g *Graph) ReplaceLong(p metric.Point, i int, to metric.Point) error {
	if !g.inRange(p) || i < 0 || i >= len(g.nodes[p].long) {
		return fmt.Errorf("graph: ReplaceLong(%d, %d) out of range", p, i)
	}
	if err := g.checkLink(p, to); err != nil {
		return err
	}
	ref := revRef{from: p, idx: i}
	if old := g.nodes[p].long[i]; old.Up {
		g.dropRev(old.To, ref)
	}
	g.seq++
	g.nodes[p].long[i] = Link{To: to, Up: true, Seq: g.seq}
	g.nodes[to].rev = append(g.nodes[to].rev, ref)
	return nil
}

// dropRev removes the reverse-index entry of an up link into at.
func (g *Graph) dropRev(at metric.Point, ref revRef) {
	rev := g.nodes[at].rev
	for i, r := range rev {
		if r == ref {
			rev[i] = rev[len(rev)-1]
			g.nodes[at].rev = rev[:len(rev)-1]
			return
		}
	}
}

// SetLongUp sets the Up flag of p's i-th long link (link-failure
// injection), keeping the reverse index in step: only up links are
// indexed. Bringing up a link whose target point hosts no node is an
// error — the node it connected to has departed (RemoveNode), and a
// later arrival at that point must not inherit the connection.
func (g *Graph) SetLongUp(p metric.Point, i int, up bool) error {
	if !g.inRange(p) || i < 0 || i >= len(g.nodes[p].long) {
		return fmt.Errorf("graph: SetLongUp(%d, %d) out of range", p, i)
	}
	lk := &g.nodes[p].long[i]
	if lk.Up == up {
		return nil
	}
	ref := revRef{from: p, idx: i}
	if up {
		if g.flags[lk.To]&flagExists == 0 {
			return fmt.Errorf("graph: SetLongUp(%d, %d): target %d hosts no node", p, i, lk.To)
		}
		g.nodes[lk.To].rev = append(g.nodes[lk.To].rev, ref)
	} else {
		g.dropRev(lk.To, ref)
	}
	lk.Up = up
	return nil
}

// ShortNeighbor returns the nearest present node along the signed axis
// direction dir (±1..±Dim) from p, skipping absent grid points, along
// with whether one exists. Short links bind each node to the closest
// *present* node along every grid direction, so in the
// binomial-presence model the short chain skips holes.
func (g *Graph) ShortNeighbor(p metric.Point, dir int) (metric.Point, bool) {
	return g.skip(p, dir, flagExists)
}

// AliveNeighbor is ShortNeighbor over live nodes only: the first node
// along dir that has not crashed — the probe successor whose skip-hole
// short link crosses a gap of dead nodes.
func (g *Graph) AliveNeighbor(p metric.Point, dir int) (metric.Point, bool) {
	return g.skip(p, dir, flagExists|flagFailed)
}

// skip is the one directional walk: the first point along dir from p
// (p itself excluded) whose flags under mask read flagExists — a
// present node for mask flagExists, a live one for
// flagExists|flagFailed.
func (g *Graph) skip(p metric.Point, dir int, mask uint8) (metric.Point, bool) {
	cur := p
	for i := 0; i < g.Size(); i++ {
		q, ok := g.space.Step(cur, dir)
		if !ok {
			return 0, false // line boundary
		}
		if q == p {
			return 0, false // wrapped all the way around
		}
		if g.flags[q]&mask == flagExists {
			return q, true
		}
		cur = q
	}
	return 0, false
}

// AppendNeighbors appends the overlay neighbours of p to buf and
// returns the extended slice; it is the one place the neighbour rule
// lives. The outgoing set comes first: the short neighbours — two per
// axis, −axis before +axis, always up, per the paper's assumption that
// immediate links never fail — then every up long link in slot order.
// This is the directed model analyzed in §4. With in set, every node
// holding an up long link INTO p follows: a long link is a network
// connection, and §5's protocol has link targets participate in link
// management, so both endpoints know each other; the §6 simulations
// route over this symmetric neighbour set. In-links can repeat
// out-links, so a point may appear more than once (greedy selection is
// idempotent). Absent points never appear; liveness is NOT filtered —
// routing decides what to do with dead neighbours.
//
// The scan reads p's own link tables only. That an up link's far end
// hosts a node, and that p.rev lists exactly the up links into p, are
// invariants the mutators keep (see node.rev), not facts re-checked
// here: a forwarding node consults its own state, never a peer's.
func (g *Graph) AppendNeighbors(buf []metric.Point, p metric.Point, in bool) []metric.Point {
	if !g.Exists(p) {
		return buf
	}
	for axis := 1; axis <= g.space.Dim(); axis++ {
		neg, okN := g.ShortNeighbor(p, -axis)
		if okN {
			buf = append(buf, neg)
		}
		if pos, okP := g.ShortNeighbor(p, +axis); okP && (!okN || pos != neg) {
			buf = append(buf, pos)
		}
	}
	nd := &g.nodes[p]
	for i := range nd.long {
		if lk := &nd.long[i]; lk.Up {
			buf = append(buf, lk.To)
		}
	}
	if in {
		for _, ref := range nd.rev {
			buf = append(buf, ref.from)
		}
	}
	return buf
}

// CheckReverseIndex verifies by brute force over the forward links the
// two invariants AppendNeighbors relies on: every up link joins two
// distinct points that both host a node, and the reverse index lists
// each up link exactly once at its target and nothing else. It is a
// test and debugging aid, O(links × in-degree); nil means both hold.
func (g *Graph) CheckReverseIndex() error {
	up, indexed := 0, 0
	for i := range g.nodes {
		q, nd := metric.Point(i), &g.nodes[i]
		indexed += len(nd.rev)
		if !g.Exists(q) {
			if len(nd.long) != 0 || len(nd.rev) != 0 {
				return fmt.Errorf("graph: absent point %d keeps %d links and %d index entries",
					q, len(nd.long), len(nd.rev))
			}
			continue
		}
		for slot, lk := range nd.long {
			if !lk.Up {
				continue
			}
			if lk.To == q || !g.Exists(lk.To) {
				return fmt.Errorf("graph: up link %d[%d] -> %d is a self-link or its target hosts no node",
					q, slot, lk.To)
			}
			n := 0
			for _, ref := range g.nodes[lk.To].rev {
				if ref == (revRef{from: q, idx: slot}) {
					n++
				}
			}
			if n != 1 {
				return fmt.Errorf("graph: up link %d[%d] -> %d is indexed %d times, want 1", q, slot, lk.To, n)
			}
			up++
		}
	}
	// Every up link accounts for one distinct entry, so equal totals
	// leave no entry that names a down, redirected or vanished link.
	if indexed != up {
		return fmt.Errorf("graph: reverse index holds %d entries for %d up links", indexed, up)
	}
	return nil
}

// NearestExisting returns the present point closest to target (the
// "basin of attraction" rule of §5: a link aimed at an absent point
// connects to the nearest present one). In one dimension ties break
// toward the lower side; in higher dimensions toward the first point
// reached by a breadth-first expansion that scans −axis before +axis.
// ok is false only if no node exists at all.
func (g *Graph) NearestExisting(target metric.Point) (metric.Point, bool) {
	return g.nearest(target, flagExists)
}

// NearestAlive is NearestExisting over live nodes only, with the same
// tie rule: where a repaired link lands, and where a lookup whose
// origin crashed re-enters. ok is false only if every node is dead.
func (g *Graph) NearestAlive(target metric.Point) (metric.Point, bool) {
	return g.nearest(target, flagExists|flagFailed)
}

// nearest is the one nearest-node search; mask selects the nodes that
// count, as in skip. For d >= 2 it writes the graph's search scratch,
// so, unlike the other queries, it falls under the mutators'
// one-goroutine rule.
func (g *Graph) nearest(target metric.Point, mask uint8) (metric.Point, bool) {
	if !g.inRange(target) {
		return 0, false
	}
	if g.flags[target]&mask == flagExists {
		return target, true
	}
	if g.space.Dim() == 1 {
		left, okL := g.skip(target, -1, mask)
		right, okR := g.skip(target, +1, mask)
		switch {
		case okL && okR:
			if g.space.Distance(left, target) <= g.space.Distance(right, target) {
				return left, true
			}
			return right, true
		case okL:
			return left, true
		case okR:
			return right, true
		}
		return 0, false
	}
	// d >= 2: breadth-first over unit grid steps. Grid steps are unit
	// moves under L1, so BFS level k is exactly the sphere of radius k
	// around the target and the first admissible point found is
	// nearest. The mark/queue scratch is reused across calls: §5
	// construction and the engine's link repair invoke this once per
	// sampled link, and a fresh O(n) allocation each time would
	// dominate the build.
	if g.nearestMark == nil {
		g.nearestMark = make([]uint32, len(g.nodes))
	}
	g.nearestGen++
	if g.nearestGen == 0 { // wrapped: stale marks could collide
		for i := range g.nearestMark {
			g.nearestMark[i] = 0
		}
		g.nearestGen = 1
	}
	gen := g.nearestGen
	queue := g.nearestQueue[:0]
	g.nearestMark[target] = gen
	queue = append(queue, target)
	for head := 0; head < len(queue); head++ {
		p := queue[head]
		if g.flags[p]&mask == flagExists {
			g.nearestQueue = queue[:0]
			return p, true
		}
		for axis := 1; axis <= g.space.Dim(); axis++ {
			for _, dir := range [2]int{-axis, +axis} {
				if q, ok := g.space.Step(p, dir); ok && g.nearestMark[q] != gen {
					g.nearestMark[q] = gen
					queue = append(queue, q)
				}
			}
		}
	}
	g.nearestQueue = queue[:0]
	return 0, false
}

// RandomAlive returns a uniformly random live node, or ok=false when
// none are alive. It rejects dead points by resampling, which is fast
// whenever a constant fraction of nodes are alive; a linear fallback
// guards the near-extinct case.
func (g *Graph) RandomAlive(src *rng.Source) (metric.Point, bool) {
	if g.aliveCount == 0 {
		return 0, false
	}
	if g.aliveCount*8 >= len(g.nodes) {
		for {
			p := metric.Point(src.Intn(len(g.nodes)))
			if g.Alive(p) {
				return p, true
			}
		}
	}
	k := src.Intn(g.aliveCount)
	for i, f := range g.flags {
		if f&(flagExists|flagFailed) == flagExists {
			if k == 0 {
				return metric.Point(i), true
			}
			k--
		}
	}
	return 0, false
}

// LinkLengthHistogram accumulates the metric length of every long link
// (up or down) into a linear histogram with one bucket per distance.
// Figure 5 plots exactly this.
func (g *Graph) LinkLengthHistogram() *mathx.Histogram {
	maxD := g.space.Size() // safe upper bound for every space
	h := mathx.NewHistogram(maxD)
	for p := range g.nodes {
		for _, lk := range g.nodes[p].long {
			h.Add(g.space.Distance(metric.Point(p), lk.To))
		}
	}
	return h
}

// AvgOutDegree returns the mean number of long links per existing node.
func (g *Graph) AvgOutDegree() float64 {
	var links, nodes int
	for p := range g.nodes {
		if g.flags[p]&flagExists != 0 {
			nodes++
			links += len(g.nodes[p].long)
		}
	}
	if nodes == 0 {
		return 0
	}
	return float64(links) / float64(nodes)
}

// LongLinkCount returns the total number of long links in the graph.
func (g *Graph) LongLinkCount() int {
	var c int
	for p := range g.nodes {
		c += len(g.nodes[p].long)
	}
	return c
}
