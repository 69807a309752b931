// Package keyspace implements the resource embedding of §2 (Figure 1):
// physical network nodes provide resources; each resource's key hashes
// to a point of the metric space, so one physical node owns the set
// V_n of points corresponding to the resources it provides. The
// overlay's vertices are these virtual points, not the machines.
//
// The distinction matters for failures: a crashing machine takes down
// all of its points at once. Because the hash spreads a machine's
// resources uniformly over the space, those correlated physical
// failures look exactly like independent point failures to the overlay
// — the property that makes §6's independent-failure experiments
// faithful to machine-level reality. The ext.physical experiment
// verifies this empirically.
package keyspace

import (
	"fmt"
	"hash/fnv"
	"sort"

	"repro/internal/metric"
)

// Key identifies a resource (the paper's key(r) ∈ K).
type Key string

// PhysID identifies a physical network node (a machine).
type PhysID int

// Hash is the paper's h : K → V, mapping a key to a point of a space
// with n grid points. FNV-1a spreads keys evenly, which §2 assumes of
// its hash function.
func Hash(k Key, n int) (metric.Point, error) {
	if n < 1 {
		return 0, fmt.Errorf("keyspace: space size must be >= 1, got %d", n)
	}
	h := fnv.New64a()
	_, _ = h.Write([]byte(k))
	return metric.Point(h.Sum64() % uint64(n)), nil
}

// Mapping tracks which physical node provides the resource at each
// occupied point — the owner(r) relation of §2.
type Mapping struct {
	n      int
	owner  map[metric.Point]PhysID
	keys   map[metric.Point]Key
	points map[PhysID][]metric.Point
}

// NewMapping returns an empty mapping over a space of n points.
func NewMapping(n int) (*Mapping, error) {
	if n < 1 {
		return nil, fmt.Errorf("keyspace: space size must be >= 1, got %d", n)
	}
	return &Mapping{
		n:      n,
		owner:  make(map[metric.Point]PhysID),
		keys:   make(map[metric.Point]Key),
		points: make(map[PhysID][]metric.Point),
	}, nil
}

// Add registers that physical node `owner` provides the resource with
// key k, and returns the point the resource occupies. Adding two keys
// that hash to the same point is a collision and returns an error; §2
// assumes the space is sparse enough that collisions are negligible,
// and callers retry with a salted key if needed.
func (m *Mapping) Add(owner PhysID, k Key) (metric.Point, error) {
	p, err := Hash(k, m.n)
	if err != nil {
		return 0, err
	}
	if prev, taken := m.owner[p]; taken {
		return 0, fmt.Errorf("keyspace: point %d already occupied by node %d (key %q)",
			p, prev, m.keys[p])
	}
	m.owner[p] = owner
	m.keys[p] = k
	m.points[owner] = append(m.points[owner], p)
	return p, nil
}

// OwnerOf returns the physical node providing the resource at p.
func (m *Mapping) OwnerOf(p metric.Point) (PhysID, bool) {
	id, ok := m.owner[p]
	return id, ok
}

// PointsOf returns the virtual points owned by a physical node (V_n of
// §2), sorted for determinism.
func (m *Mapping) PointsOf(owner PhysID) []metric.Point {
	pts := make([]metric.Point, len(m.points[owner]))
	copy(pts, m.points[owner])
	sort.Slice(pts, func(i, j int) bool { return pts[i] < pts[j] })
	return pts
}

// PresenceMask returns the []bool mask (length n) of occupied points,
// suitable for graph.NewWithPresence: the overlay only has vertices
// where resources exist.
func (m *Mapping) PresenceMask() []bool {
	mask := make([]bool, m.n)
	for p := range m.owner {
		mask[p] = true
	}
	return mask
}

// Remove unregisters the resource at p (the physical node stopped
// providing it).
func (m *Mapping) Remove(p metric.Point) error {
	owner, ok := m.owner[p]
	if !ok {
		return fmt.Errorf("keyspace: no resource at point %d", p)
	}
	delete(m.owner, p)
	delete(m.keys, p)
	pts := m.points[owner]
	for i, q := range pts {
		if q == p {
			m.points[owner] = append(pts[:i], pts[i+1:]...)
			break
		}
	}
	if len(m.points[owner]) == 0 {
		delete(m.points, owner)
	}
	return nil
}

// FailPhysical removes every resource of a physical node (machine
// crash) and returns the virtual points that died with it.
func (m *Mapping) FailPhysical(owner PhysID) []metric.Point {
	pts := m.PointsOf(owner)
	for _, p := range pts {
		delete(m.owner, p)
		delete(m.keys, p)
	}
	delete(m.points, owner)
	return pts
}
