package baseline

import (
	"fmt"

	"repro/internal/rng"
)

// Flood models Gnutella-style unstructured search (§3): nodes form a
// random graph of average degree `degree`, and a lookup floods the
// graph breadth-first with a TTL. The delivery path length is the BFS
// depth at which the target is found, but the real cost — the reason
// the paper calls flooding unscalable — is Messages, the number of
// query messages forwarded.
type Flood struct {
	adj [][]int
	ttl int
}

// NewFlood builds a connected-ish random graph of n nodes with the
// given even average degree and flood TTL.
func NewFlood(n, degree, ttl int, src *rng.Source) (*Flood, error) {
	if n < 2 {
		return nil, fmt.Errorf("baseline: flood needs n >= 2, got %d", n)
	}
	if degree < 2 || degree >= n {
		return nil, fmt.Errorf("baseline: flood degree %d out of range [2,%d)", degree, n)
	}
	if ttl < 1 {
		return nil, fmt.Errorf("baseline: flood TTL must be >= 1, got %d", ttl)
	}
	f := &Flood{adj: make([][]int, n), ttl: ttl}
	// Ring + random chords: guarantees connectivity and approximates
	// the Gnutella topology.
	for i := 0; i < n; i++ {
		f.addEdge(i, (i+1)%n)
	}
	extra := (degree - 2) / 2
	for i := 0; i < n; i++ {
		for j := 0; j < extra; j++ {
			k := src.Intn(n)
			if k != i {
				f.addEdge(i, k)
			}
		}
	}
	return f, nil
}

func (f *Flood) addEdge(a, b int) {
	f.adj[a] = append(f.adj[a], b)
	f.adj[b] = append(f.adj[b], a)
}

// Name returns "flood".
func (f *Flood) Name() string { return "flood" }

// Nodes returns the node count.
func (f *Flood) Nodes() int { return len(f.adj) }

// Route floods from `from` until `to` is reached or the TTL expires.
func (f *Flood) Route(_ *rng.Source, from, to int) Result {
	if from == to {
		return Result{Delivered: true}
	}
	visited := make([]bool, len(f.adj))
	visited[from] = true
	frontier := []int{from}
	messages := 0
	for depth := 1; depth <= f.ttl; depth++ {
		var next []int
		for _, u := range frontier {
			for _, v := range f.adj[u] {
				messages++ // every forward is a message, even to visited nodes
				if visited[v] {
					continue
				}
				if v == to {
					return Result{Delivered: true, Hops: depth, Messages: messages}
				}
				visited[v] = true
				next = append(next, v)
			}
		}
		if len(next) == 0 {
			break
		}
		frontier = next
	}
	return Result{Delivered: false, Hops: f.ttl, Messages: messages}
}

var _ Router = (*Flood)(nil)
