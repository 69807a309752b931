package graph

import (
	"math"
	"sync"

	"repro/internal/metric"
)

// rowCache holds the graph's neighbour rows: for every point, the
// sequence AppendNeighbors(p, true) enumerates, as int32s, contiguous
// in one slab, with the offset where its in-links start — so the
// greedy step reads a node's candidates in one run of memory instead of
// walking the space for its short links, filtering the link table on Up
// and following the reverse index, and the directed model reads the
// prefix. Every row is what the one gather (appendNeighbors) produced,
// appended by a build or copied in place by a refresh: neighbour order
// is routing tie order, so no row is assembled by hand.
//
// The cache is optional and lazy. RefreshRows builds it (the engine's
// set-up does, before any shard or worker starts); until then, and for
// any point whose row a mutator has marked stale since, Row falls back
// to the gather, so a reader is correct whether or not anyone refreshed.
type rowCache struct {
	// mu serializes RefreshRows, so that two read-only engine runs on
	// one graph may both ask for fresh rows. The mutators never take
	// it: they fall under the graph's one-goroutine mutation contract.
	mu sync.Mutex
	// spans locates every point's row; nil while the graph has none.
	spans []rowSpan
	slab  []int32
	// stale lists, each once, the points whose flagStale a mutator set
	// since the last refresh.
	stale []int32
	// unfit counts the rows a refresh left stale because they outgrew
	// their storage; they are read by gather until the next build.
	unfit int
}

// rowSpan locates one row in the slab: entries [off, end), the
// outgoing neighbours being [off, out). Its storage ends at cap, where
// the next row's begins; a re-derived row is written in place while it
// fits, so no row ever writes into its neighbour's.
type rowSpan struct {
	off, out, end, cap int32
}

// Row returns p's neighbours in AppendNeighbors(p, in) order, as
// int32s: p's cached row (or, without in, its outgoing prefix) when the
// graph holds a fresh one, with cached true, and otherwise buf with the
// gather appended. A cached row is shared: the caller must not modify
// it, and it stays valid only until the next RefreshRows. Like every
// query, Row may run on many goroutines at once while nothing mutates
// the graph or refreshes its rows.
func (g *Graph) Row(buf []int32, p metric.Point, in bool) (row []int32, cached bool) {
	c := &g.rows
	if uint(p) < uint(len(c.spans)) && g.flags[p]&flagStale == 0 {
		s := c.spans[p]
		if !in {
			return c.slab[s.off:s.out:s.out], true
		}
		return c.slab[s.off:s.end:s.end], true
	}
	row, _ = appendNeighbors(g, buf, p, in)
	return row, false
}

// RefreshRows brings the neighbour rows up to date: it builds the cache
// when the graph holds none, and otherwise re-derives in place just the
// rows mutators marked stale since the last refresh, so on a graph
// nothing changed since it is a no-op. A row that no longer fits its
// storage stays stale, served by the gather, until more than a
// sixteenth of the rows have outgrown theirs and every row is rebuilt.
// It must not run concurrently
// with a mutation, nor with a Row on a graph that has stale rows; two
// RefreshRows on one graph may run at once.
//
// Only the discrete-event engine calls it: once in Run's set-up, and
// after each batch of churn ops on the sequential side of a barrier. A
// graph that routes about one search per node — every experiment trial
// — would spend more building rows than its searches save.
func (g *Graph) RefreshRows() {
	c := &g.rows
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.spans == nil {
		g.buildRows()
		return
	}
	var buf [64]int32 // where a stale row is gathered before it is copied in place
	for _, p := range c.stale {
		row, out := appendNeighbors(g, buf[:0], metric.Point(p), true)
		s := &c.spans[p]
		if n := int32(len(row)); n <= s.cap-s.off {
			copy(c.slab[s.off:], row)
			s.out, s.end = s.off+int32(out), s.off+n
			g.flags[p] &^= flagStale
			continue
		}
		c.unfit++
	}
	c.stale = c.stale[:0]
	if c.unfit > len(c.spans)/16 {
		// Rebuild, into the same slab while it is large enough: the
		// rows fall back to the gather too often to leave them.
		g.buildRows()
	}
}

// buildRows derives every point's row into a slab sized for the
// largest rows the link tables allow (2·dim short links, every long
// link up, every in-link, and the spare), so the build allocates it
// once. A graph too large for int32 offsets keeps no rows.
func (g *Graph) buildRows() {
	c := &g.rows
	bound := 0
	for i := range g.nodes {
		bound += 2*g.space.Dim() + len(g.nodes[i].long) + len(g.nodes[i].rev) + 1
	}
	if bound > math.MaxInt32 {
		g.dropRows()
		return
	}
	if len(c.spans) != len(g.nodes) {
		c.spans = make([]rowSpan, len(g.nodes))
	}
	if cap(c.slab) < bound {
		c.slab = make([]int32, 0, bound)
	}
	if c.stale == nil {
		// Room for the rows a batch of churn ops usually stales, so
		// that marking them does not grow the list entry by entry.
		c.stale = make([]int32, 0, len(g.nodes)/16)
	}
	c.slab = c.slab[:0]
	for i := range c.spans {
		g.flags[i] &^= flagStale
		c.spans[i] = c.derive(g, metric.Point(i))
	}
	c.stale, c.unfit = c.stale[:0], 0
}

// derive appends p's row at the slab's tail, then one spare entry the
// row may grow into — the growth a redirected link brings its new
// target — and returns its span.
func (c *rowCache) derive(g *Graph, p metric.Point) rowSpan {
	off := int32(len(c.slab))
	var out int
	c.slab, out = appendNeighbors(g, c.slab, p, true)
	end := int32(len(c.slab))
	c.slab = append(c.slab, 0)
	return rowSpan{off: off, out: int32(out), end: end, cap: end + 1}
}

// markStale records that p's row no longer matches its neighbours.
// Every mutator that changes a row calls it for exactly the points
// whose rows it changes; on a graph without rows it does nothing.
func (g *Graph) markStale(p metric.Point) {
	if g.rows.spans != nil && g.flags[p]&flagStale == 0 {
		g.flags[p] |= flagStale
		g.rows.stale = append(g.rows.stale, int32(p))
	}
}

// dropRows discards the cache, for the mutators that change rows
// wholesale (RestoreLinks, AddNode, RemoveNode). Stale bits may stay
// set: Row tests the cache first, and buildRows clears them all.
func (g *Graph) dropRows() {
	g.rows.spans, g.rows.slab = nil, nil
	g.rows.stale, g.rows.unfit = g.rows.stale[:0], 0
}
