// Package baseline implements the peer-to-peer systems the paper
// surveys in §3, each reduced to its routing core, so the experiment
// harness can compare the paper's random-graph overlay against them on
// the same workloads:
//
//   - Chord (Stoica et al.): identifier circle with power-of-two finger
//     tables and one-sided clockwise greedy routing.
//   - Plaxton/Tapestry: base-b digit strings, suffix routing that fixes
//     one digit per hop.
//   - Gnutella-style flooding: TTL-bounded breadth-first flood over an
//     unstructured random graph; the cost is counted in messages.
//   - Napster-style central index: one round trip to the server, then
//     direct transfer.
//
// All systems expose the same Router interface over integer node ids.
// Kleinberg's small world and CAN are not here: they are the paper's
// own model on a 2-D torus, at exponent 2 and at ℓ = 0 long links, so
// the baselines experiment builds them with graph.BuildIdeal and
// routes them with package route.
package baseline

import "repro/internal/rng"

// Result reports the outcome of one baseline lookup.
type Result struct {
	// Delivered is true when the lookup reached the target.
	Delivered bool
	// Hops is the length of the delivery path.
	Hops int
	// Messages is the total number of messages sent; for unicast
	// routers it equals Hops, for flooding it is the flood size.
	Messages int
}

// Router is a baseline peer-to-peer lookup system over nodes 0..Nodes()-1.
type Router interface {
	// Name identifies the system in experiment output.
	Name() string
	// Nodes returns the number of nodes.
	Nodes() int
	// Route performs one lookup from node `from` for the resource held
	// by node `to`.
	Route(src *rng.Source, from, to int) Result
}
