package overlay

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/construct"
	"repro/internal/keyspace"
	"repro/internal/mathx"
	"repro/internal/metric"
	"repro/internal/rng"
	"repro/internal/transport"
)

// Config parameterizes a Node.
type Config struct {
	// Ring is the shared identifier space; all nodes of one network
	// must agree on its size.
	Ring *metric.Ring
	// Links is ℓ, the long-link budget.
	Links int
	// Seed drives this node's randomness (link sampling, solicit
	// decisions).
	Seed uint64
	// CallTimeout bounds each RPC; zero defaults to 2s.
	CallTimeout time.Duration
}

func (c Config) withDefaults() Config {
	if c.CallTimeout == 0 {
		c.CallTimeout = 2 * time.Second
	}
	return c
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Ring == nil {
		return errors.New("overlay: nil ring")
	}
	if c.Links < 0 {
		return fmt.Errorf("overlay: negative link budget %d", c.Links)
	}
	return nil
}

// Node is one live overlay participant.
type Node struct {
	cfg     Config
	id      metric.Point
	tr      transport.Transport
	sampler metric.LinkSampler // the §5 long-link distribution
	stop    func()             // transport unregister
	srcMu   sync.Mutex
	src     *rng.Source

	mu    sync.RWMutex
	left  metric.Point // nearest known node counter-clockwise
	right metric.Point // nearest known node clockwise
	long  []metric.Point
	store map[string]string
}

// NewNode creates a node with identifier id and starts serving requests
// on tr. The node starts isolated (its short links point at itself);
// call Join to enter an existing network, or use it as the bootstrap
// node of a new one. The node heals only when told to (MaintainOnce, or
// Cluster.MaintainAll). Close must be called to release the transport
// registration.
func NewNode(id metric.Point, cfg Config, tr transport.Transport) (*Node, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if !cfg.Ring.Contains(id) {
		return nil, fmt.Errorf("overlay: id %d outside ring of size %d", id, cfg.Ring.Size())
	}
	sampler, err := cfg.Ring.NewLinkSampler(1)
	if err != nil {
		return nil, err
	}
	n := &Node{
		cfg:     cfg.withDefaults(),
		id:      id,
		tr:      tr,
		sampler: sampler,
		src:     rng.New(cfg.Seed ^ uint64(id)*0x9E3779B97F4A7C15),
		left:    id,
		right:   id,
		store:   make(map[string]string),
	}
	stop, err := tr.Listen(transport.NodeID(id), n.handle)
	if err != nil {
		return nil, fmt.Errorf("overlay: node %d: %w", id, err)
	}
	n.stop = stop
	return n, nil
}

// ID returns the node's identifier (its metric-space point).
func (n *Node) ID() metric.Point { return n.id }

// Close unregisters from the transport. Call it exactly once.
func (n *Node) Close() { n.stop() }

// Neighbors returns the node's current short links and a copy of its
// long links.
func (n *Node) Neighbors() (left, right metric.Point, long []metric.Point) {
	n.mu.RLock()
	defer n.mu.RUnlock()
	long = make([]metric.Point, len(n.long))
	copy(long, n.long)
	return n.left, n.right, long
}

// HashKey maps a resource key to a point of the ring: the paper's
// h : K → V, which is keyspace.Hash.
func HashKey(key string, ring *metric.Ring) metric.Point {
	p, _ := keyspace.Hash(keyspace.Key(key), ring.Size()) // errs only on an empty space, and no ring is
	return p
}

// --- server side -----------------------------------------------------

func (n *Node) handle(reqBytes []byte) ([]byte, error) {
	req, err := decodeRequest(reqBytes)
	if err != nil {
		return nil, fmt.Errorf("overlay: bad request: %w", err)
	}
	resp, err := n.serve(req)
	if err != nil {
		return nil, err
	}
	return encodeResponse(resp)
}

// serve answers one request from the node's own state. It is the
// handler behind the transport and, for a call a node addresses to
// itself, the whole call. Points arriving in a request are outside
// input: a sender or target off the ring is a request error.
func (n *Node) serve(req Request) (Response, error) {
	from := metric.Point(req.From)
	if !n.cfg.Ring.Contains(from) {
		return Response{}, fmt.Errorf("overlay: sender %d outside ring", req.From)
	}
	switch req.Op {
	case OpPing:
		return Response{OK: true}, nil
	case OpNearest:
		if !n.cfg.Ring.Contains(metric.Point(req.Target)) {
			return Response{}, fmt.Errorf("overlay: target %d outside ring", req.Target)
		}
		return n.handleNearest(req), nil
	case OpNeighborInfo:
		n.mu.RLock()
		defer n.mu.RUnlock()
		return Response{OK: true, Left: int64(n.left), Right: int64(n.right)}, nil
	case OpNewNeighbor:
		return Response{OK: n.considerNeighbor(from)}, nil
	case OpSolicit:
		return Response{Accepted: n.handleSolicit(from)}, nil
	case OpPut:
		n.mu.Lock()
		defer n.mu.Unlock()
		n.store[req.Key] = req.Value
		return Response{OK: true}, nil
	case OpGet:
		n.mu.RLock()
		defer n.mu.RUnlock()
		v, ok := n.store[req.Key]
		return Response{OK: true, Found: ok, Value: v}, nil
	default:
		return Response{}, fmt.Errorf("overlay: unknown op %q", req.Op)
	}
}

// handleNearest implements greedy next-hop selection over the node's
// current link set, excluding the nodes the querier reported dead.
func (n *Node) handleNearest(req Request) Response {
	target := metric.Point(req.Target)
	excluded := make(map[metric.Point]bool, len(req.Exclude))
	for _, e := range req.Exclude {
		excluded[metric.Point(e)] = true
	}
	ring := n.cfg.Ring
	n.mu.RLock()
	candidates := make([]metric.Point, 0, len(n.long)+2)
	candidates = append(candidates, n.left, n.right)
	candidates = append(candidates, n.long...)
	n.mu.RUnlock()

	best := n.id
	bestD := ring.Distance(n.id, target)
	for _, c := range candidates {
		if c == n.id || excluded[c] {
			continue
		}
		if d := ring.Distance(c, target); d < bestD {
			best, bestD = c, d
		}
	}
	if best == n.id {
		return Response{OK: true, IsSelf: true}
	}
	return Response{OK: true, Next: int64(best)}
}

// considerNeighbor updates the short links if `from` is closer than the
// current neighbour on its side. Returns true when a link changed.
func (n *Node) considerNeighbor(from metric.Point) bool {
	if from == n.id {
		return false
	}
	ring := n.cfg.Ring
	n.mu.Lock()
	defer n.mu.Unlock()
	changed := false
	cwNew := ring.ClockwiseDistance(n.id, from)
	if n.right == n.id || cwNew < ring.ClockwiseDistance(n.id, n.right) {
		n.right = from
		changed = true
	}
	ccwNew := ring.ClockwiseDistance(from, n.id)
	if n.left == n.id || ccwNew < ring.ClockwiseDistance(n.left, n.id) {
		n.left = from
		changed = true
	}
	return changed
}

// handleSolicit applies the §5 link-redirection rule, construct.Solicit,
// to this node's long links: top up below budget, otherwise accept the
// newcomer with probability p_new/Σp and redirect a victim chosen with
// probability proportional to 1/d.
func (n *Node) handleSolicit(from metric.Point) bool {
	if from == n.id {
		return false
	}
	ring := n.cfg.Ring
	n.mu.Lock()
	defer n.mu.Unlock()
	dists := make([]int, len(n.long))
	for i, to := range n.long {
		dists[i] = ring.Distance(n.id, to)
	}
	n.srcMu.Lock()
	slot, ok := construct.Solicit(n.src, construct.InverseDistance, n.cfg.Links, ring.Dim(), ring.Distance(n.id, from), dists)
	n.srcMu.Unlock()
	if !ok {
		return false
	}
	if slot == len(n.long) {
		n.long = append(n.long, from)
	} else {
		n.long[slot] = from
	}
	return true
}

// --- client side -----------------------------------------------------

// call sends req to node `to` and decodes its answer; a call a node
// addresses to itself is served locally, so callers need not ask
// whether the owner they resolved is themselves.
func (n *Node) call(ctx context.Context, to metric.Point, req Request) (Response, error) {
	req.From = int64(n.id)
	if to == n.id {
		return n.serve(req)
	}
	payload, err := encodeRequest(req)
	if err != nil {
		return Response{}, err
	}
	cctx, cancel := context.WithTimeout(ctx, n.cfg.CallTimeout)
	defer cancel()
	respBytes, err := n.tr.Call(cctx, transport.NodeID(to), payload)
	if err != nil {
		return Response{}, err
	}
	return decodeResponse(respBytes)
}

// alive probes p.
func (n *Node) alive(ctx context.Context, p metric.Point) bool {
	_, err := n.call(ctx, p, Request{Op: OpPing})
	return err == nil
}

// Lookup resolves the live node owning target, starting from this node,
// using iterative greedy routing with client-side exclusion of dead
// hops. It returns the owner and the number of hops taken.
func (n *Node) Lookup(ctx context.Context, target metric.Point) (metric.Point, int, error) {
	return n.lookupFrom(ctx, n.id, target)
}

// lookupFrom is the one iterative lookup loop: ask the current hop for
// its best neighbour toward target, probe the proposal, move there if
// it answers, and otherwise exclude it and ask the current hop again —
// backtracking at the querier. The hop that proposes nobody owns the
// target. A walk started elsewhere (Join's locate step) excludes this
// node from the outset: it is not part of the network yet, and a link
// left over from an earlier holder of its id must not lead the walk
// into it. The walk gives up after 8·(⌊lg n⌋+1)² + 64 hops.
func (n *Node) lookupFrom(ctx context.Context, start, target metric.Point) (metric.Point, int, error) {
	if !n.cfg.Ring.Contains(target) {
		return 0, 0, fmt.Errorf("overlay: target %d outside ring", target)
	}
	lg := mathx.ILog2(n.cfg.Ring.Size()) + 1
	maxHops := 8*lg*lg + 64
	var exclude []int64
	if start != n.id {
		exclude = append(exclude, int64(n.id))
	}
	cur := start
	for hops := 0; hops < maxHops; {
		resp, err := n.call(ctx, cur, Request{Op: OpNearest, Target: int64(target), Exclude: exclude})
		if err != nil {
			return 0, hops, fmt.Errorf("overlay: lookup lost hop %d: %w", cur, err)
		}
		if resp.IsSelf {
			return cur, hops, nil
		}
		hops++
		if next := metric.Point(resp.Next); n.alive(ctx, next) {
			cur = next
		} else {
			exclude = append(exclude, int64(next))
		}
	}
	return 0, maxHops, fmt.Errorf("overlay: lookup exceeded %d hops", maxHops)
}

// Join enters the network through the bootstrap node `via`: it locates
// its ring position (the lookup loop, started at via), wires short
// links on both sides, draws its ℓ long links from the inverse power-law
// distribution (resolving each sampled point to its live owner), settles
// the short links on live nodes, and solicits Poisson(ℓ) incoming links
// per §5.
func (n *Node) Join(ctx context.Context, via metric.Point) error {
	if via == n.id {
		return errors.New("overlay: cannot join through self")
	}
	// Find our place: the owner of our own point, seen from via.
	owner, _, err := n.lookupFrom(ctx, via, n.id)
	if err != nil {
		return fmt.Errorf("overlay: join via %d: %w", via, err)
	}
	// Wire short links: adopt the owner's view, then announce.
	info, err := n.call(ctx, owner, Request{Op: OpNeighborInfo})
	if err != nil {
		return err
	}
	n.adoptNeighbors(owner, metric.Point(info.Left), metric.Point(info.Right))
	n.announceSelf(ctx)

	// Draw long links.
	for i := 0; i < n.cfg.Links; i++ {
		if to, ok := n.drawPeer(ctx); ok {
			n.mu.Lock()
			if len(n.long) < n.cfg.Links {
				n.long = append(n.long, to)
			}
			n.mu.Unlock()
		}
	}
	// The owner's view may name a neighbour that has crashed since the
	// owner last looked; settle both sides on live nodes, now that the
	// long links are there to seed the walk.
	n.tightenShort(ctx, true)
	n.tightenShort(ctx, false)

	// Solicit incoming links (§5 step 2–3).
	n.srcMu.Lock()
	want := n.src.Poisson(float64(n.cfg.Links))
	n.srcMu.Unlock()
	for i := 0; i < want; i++ {
		if u, ok := n.drawPeer(ctx); ok {
			_, _ = n.call(ctx, u, Request{Op: OpSolicit})
		}
	}
	return nil
}

// adoptNeighbors initializes short links around the owner of our
// arrival point.
func (n *Node) adoptNeighbors(owner, ownerLeft, ownerRight metric.Point) {
	ring := n.cfg.Ring
	n.mu.Lock()
	defer n.mu.Unlock()
	// We sit on one side of owner; the neighbour on the far side
	// stays owner's.
	if ring.ClockwiseDistance(owner, n.id) <= ring.ClockwiseDistance(n.id, owner) {
		// We are clockwise of owner: owner becomes left, owner's old
		// right becomes our right.
		n.left = owner
		n.right = ownerRight
		if n.right == n.id || !ring.Contains(n.right) {
			n.right = owner
		}
	} else {
		n.right = owner
		n.left = ownerLeft
		if n.left == n.id || !ring.Contains(n.left) {
			n.left = owner
		}
	}
}

// announceSelf tells both short neighbours we exist.
func (n *Node) announceSelf(ctx context.Context) {
	n.mu.RLock()
	left, right := n.left, n.right
	n.mu.RUnlock()
	for _, peer := range []metric.Point{left, right} {
		if peer != n.id {
			_, _ = n.call(ctx, peer, Request{Op: OpNewNeighbor})
		}
	}
}

// drawPeer draws a point at inverse power-law distance from this node
// and resolves it to the live node that owns it; ok is false when the
// lookup failed or came back to this node.
func (n *Node) drawPeer(ctx context.Context) (metric.Point, bool) {
	n.srcMu.Lock()
	point, ok := n.sampler.Sample(n.id, n.src)
	n.srcMu.Unlock()
	if !ok {
		return 0, false
	}
	owner, _, err := n.Lookup(ctx, point)
	return owner, err == nil && owner != n.id
}

// --- maintenance -----------------------------------------------------

// MaintainOnce runs one self-healing pass: ping every link and replace
// dead ones. Dead long links are redrawn from the distribution; short
// links are tightened to the nearest live node on each side with a
// Chord-style stabilization walk.
func (n *Node) MaintainOnce(ctx context.Context) {
	n.mu.RLock()
	long := make([]metric.Point, len(n.long))
	copy(long, n.long)
	n.mu.RUnlock()

	// Long links: redraw dead ones.
	deadIdx := make([]int, 0, 2)
	for i, to := range long {
		if !n.alive(ctx, to) {
			deadIdx = append(deadIdx, i)
		}
	}
	for _, i := range deadIdx {
		if owner, ok := n.drawPeer(ctx); ok {
			n.mu.Lock()
			if i < len(n.long) {
				n.long[i] = owner
			}
			n.mu.Unlock()
		}
	}

	// Short links: walk each side to the nearest live node
	// (Chord-style stabilization), replacing dead neighbours and
	// tightening stale ones.
	n.tightenShort(ctx, true)
	n.tightenShort(ctx, false)

	// Keep neighbours aware of us (heals asymmetric views after churn).
	n.announceSelf(ctx)
}

// tightenShort finds the nearest live node in the given direction and
// installs it as the short link on that side. It seeds a candidate set
// from every link the node holds, then walks: repeatedly asking the
// best candidate for its own neighbour facing us, which (as in Chord's
// stabilization) converges on the true adjacent node even across
// multi-node gaps, in a single maintenance pass when intermediate
// pointers are intact.
func (n *Node) tightenShort(ctx context.Context, clockwise bool) {
	ring := n.cfg.Ring
	dist := func(c metric.Point) int {
		if clockwise {
			return ring.ClockwiseDistance(n.id, c)
		}
		return ring.ClockwiseDistance(c, n.id)
	}

	n.mu.RLock()
	seeds := make([]metric.Point, 0, len(n.long)+2)
	seeds = append(seeds, n.left, n.right)
	seeds = append(seeds, n.long...)
	n.mu.RUnlock()

	var best metric.Point
	haveBest := false
	for _, c := range seeds {
		if c == n.id || !ring.Contains(c) {
			continue
		}
		if (!haveBest || dist(c) < dist(best)) && n.alive(ctx, c) {
			best, haveBest = c, true
		}
	}
	if !haveBest {
		// Isolated until someone announces themselves.
		n.mu.Lock()
		if clockwise {
			n.right = n.id
		} else {
			n.left = n.id
		}
		n.mu.Unlock()
		return
	}
	// Walk toward us: ask the current best for its neighbour on the
	// side facing us.
	for i := 0; i < ring.Size(); i++ {
		info, err := n.call(ctx, best, Request{Op: OpNeighborInfo})
		if err != nil {
			break
		}
		q := metric.Point(info.Left)
		if !clockwise {
			q = metric.Point(info.Right)
		}
		if q == best || q == n.id || !ring.Contains(q) || dist(q) >= dist(best) || !n.alive(ctx, q) {
			break
		}
		best = q
	}
	n.mu.Lock()
	if clockwise {
		n.right = best
	} else {
		n.left = best
	}
	n.mu.Unlock()
	_, _ = n.call(ctx, best, Request{Op: OpNewNeighbor})
}
