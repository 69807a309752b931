package experiments

import (
	"testing"

	"repro/internal/baseline"
	"repro/internal/rng"
)

// pairSpy is a two-node system that delivers every lookup in one hop
// and three messages, and records the endpoints it was asked for.
type pairSpy struct{ pairs [][2]int }

func (s *pairSpy) Name() string { return "spy" }
func (s *pairSpy) Nodes() int   { return 2 }
func (s *pairSpy) Route(_ *rng.Source, from, to int) baseline.Result {
	s.pairs = append(s.pairs, [2]int{from, to})
	return baseline.Result{Delivered: true, Hops: 1, Messages: 3}
}

// TestHealthyRowsDrawDistinctEndpoints pins that a healthy baseline row
// never looks a node up from itself: on two nodes, half of all
// independent endpoint draws are self-lookups, which a system answers
// in zero hops and which would drag the row's mean below the one hop
// every real lookup takes.
func TestHealthyRowsDrawDistinctEndpoints(t *testing.T) {
	spy := &pairSpy{}
	hops, msgs, delivered := healthyRow(spy, rng.New(7), 200)
	if len(spy.pairs) != 200 {
		t.Fatalf("routed %d lookups, want 200", len(spy.pairs))
	}
	for i, p := range spy.pairs {
		if p[0] == p[1] {
			t.Fatalf("lookup %d goes from node %d to itself", i, p[0])
		}
	}
	if hops != 1 || msgs != 3 || delivered != 1 {
		t.Errorf("row reads %v hops, %v messages, %v delivered; want 1, 3, 1", hops, msgs, delivered)
	}
}
