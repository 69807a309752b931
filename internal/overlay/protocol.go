// Package overlay implements a live, message-passing version of the
// paper's design: each Node is an independent actor that keeps two
// short links (nearest known neighbour on each side of the ring) and ℓ
// long links drawn from the inverse power-law distribution, answers
// routing queries from peers, stores resources for the keys it owns,
// heals its link set in maintenance passes (MaintainOnce), and joins a
// running network following the §5 heuristic.
//
// Nodes communicate only through a transport.Transport, so the same
// code runs over in-memory channels (simulating hundreds of nodes in
// one process, as the paper's experiments do) and over real TCP
// sockets (cmd/ftrnode, Example_tcpCluster).
//
// Routing is iterative: the querying node repeatedly asks the current
// hop for its best next neighbour toward the target. Iterative routing
// keeps all failure handling at the querier — a dead next hop is
// reported back and excluded, which implements the paper's
// backtracking recovery at the protocol level.
//
// The package owns forwarding — RPC, liveness probes, stabilisation —
// and nothing that is a pure function of the protocol: long-link
// targets come from the ring's metric.LinkSampler, the §5 acceptance
// and victim draws from construct.Solicit, h : K → V from
// keyspace.Hash, replica sets from replica.Placement. The greedy pick
// itself stays local (a node scores its own links, not a global
// graph); TestLookupMatchesRouter ties it to package route by
// requiring Lookup to end where route.Router{DirectedOnly} ends on the
// same links, healthy and damaged.
package overlay

import "encoding/json"

// Op identifies a protocol operation.
type Op string

// Protocol operations.
const (
	// OpPing checks liveness.
	OpPing Op = "ping"
	// OpNearest asks a node for its best neighbour toward Target,
	// excluding the nodes listed in Exclude. The reply's IsSelf is
	// true when the asked node is closer than every admissible
	// neighbour — i.e. it owns the target region.
	OpNearest Op = "nearest"
	// OpNeighborInfo returns the node's current short links.
	OpNeighborInfo Op = "neighbor-info"
	// OpNewNeighbor announces a (possibly) closer short neighbour.
	OpNewNeighbor Op = "new-neighbor"
	// OpSolicit asks a node to redirect one of its long links toward
	// the sender, per the §5 acceptance probability.
	OpSolicit Op = "solicit"
	// OpPut stores a key/value pair at the receiving node.
	OpPut Op = "put"
	// OpGet retrieves a key from the receiving node.
	OpGet Op = "get"
)

// Request is the wire request message. Point-valued fields use int64 to
// survive JSON round trips unambiguously.
type Request struct {
	Op      Op      `json:"op"`
	From    int64   `json:"from"`
	Target  int64   `json:"target,omitempty"`
	Exclude []int64 `json:"exclude,omitempty"`
	Key     string  `json:"key,omitempty"`
	Value   string  `json:"value,omitempty"`
}

// Response is the wire response message.
type Response struct {
	// OK is the generic success flag (ping, put, new-neighbor).
	OK bool `json:"ok,omitempty"`
	// IsSelf reports that the asked node owns the target region.
	IsSelf bool `json:"isSelf,omitempty"`
	// Next is the proposed next hop for OpNearest.
	Next int64 `json:"next,omitempty"`
	// Left and Right are the node's short links (OpNeighborInfo).
	Left  int64 `json:"left,omitempty"`
	Right int64 `json:"right,omitempty"`
	// Found and Value answer OpGet.
	Found bool   `json:"found,omitempty"`
	Value string `json:"value,omitempty"`
	// Accepted answers OpSolicit.
	Accepted bool `json:"accepted,omitempty"`
}

func encodeRequest(r Request) ([]byte, error) { return json.Marshal(r) }
func decodeRequest(b []byte) (Request, error) {
	var r Request
	err := json.Unmarshal(b, &r)
	return r, err
}
func encodeResponse(r Response) ([]byte, error) { return json.Marshal(r) }
func decodeResponse(b []byte) (Response, error) {
	var r Response
	err := json.Unmarshal(b, &r)
	return r, err
}
