package overlay

import (
	"context"
	"fmt"
	"slices"

	"repro/internal/metric"
	"repro/internal/replica"
)

// Storage: a key lives at the owner of its hashed point, so the paper's
// design routes around failures but loses any resource whose owner
// crashes (§7 leaves durability to future work). PutReplicated and
// GetReplicated close that gap with the placement ext.replica.*
// measures: the k replica points of replica.Placement's hash-spread —
// the key's own point first — each resolved to the live node owning it.
// Spread replicas fail independently, where adjacent ones share a
// neighbourhood's fate. Put and Get are the k = 1 case.

// placementSeed keys the hash-spread. It is a network-wide constant and
// not a Config field because every node must derive the same replica
// points for a key without coordination: a writer and a reader whose
// seeds differed would look in different places.
const placementSeed = 0x5EED0F5E75

// holders resolves the distinct live nodes owning the k replica points
// of key, primary first, and the last lookup error if any point could
// not be resolved.
func (n *Node) holders(ctx context.Context, key string, k int) ([]metric.Point, error) {
	if k < 1 {
		return nil, fmt.Errorf("overlay: need at least one replica, got %d", k)
	}
	place, err := replica.NewPlacement(n.cfg.Ring, replica.Options{K: k}, placementSeed)
	if err != nil {
		return nil, err
	}
	var held []metric.Point
	var lastErr error
	for _, point := range place.Targets(HashKey(key, n.cfg.Ring)) {
		if owner, _, err := n.Lookup(ctx, point); err != nil {
			lastErr = err
		} else if !slices.Contains(held, owner) {
			held = append(held, owner)
		}
	}
	return held, lastErr
}

// PutReplicated stores key at the live owners of its replicas replica
// points. It returns the nodes that accepted the write (at least one on
// success).
func (n *Node) PutReplicated(ctx context.Context, key, value string, replicas int) ([]metric.Point, error) {
	held, err := n.holders(ctx, key, replicas)
	var stored []metric.Point
	for _, h := range held {
		resp, cerr := n.call(ctx, h, Request{Op: OpPut, Key: key, Value: value})
		if cerr != nil {
			err = cerr
		} else if resp.OK {
			stored = append(stored, h)
		}
	}
	if len(stored) == 0 {
		return nil, fmt.Errorf("overlay: no replica accepted key %q: %w", key, err)
	}
	return stored, nil
}

// GetReplicated retrieves key from the first of its replicas holders
// that has it, so a read succeeds while any holder that took the write
// is still the live owner of its replica point.
func (n *Node) GetReplicated(ctx context.Context, key string, replicas int) (string, bool, error) {
	held, err := n.holders(ctx, key, replicas)
	for _, h := range held {
		resp, cerr := n.call(ctx, h, Request{Op: OpGet, Key: key})
		if cerr != nil {
			err = cerr
		} else if resp.Found {
			return resp.Value, true, nil
		}
	}
	return "", false, err
}

// Put stores key/value at the owner of the key's point and returns the
// owner.
func (n *Node) Put(ctx context.Context, key, value string) (metric.Point, error) {
	stored, err := n.PutReplicated(ctx, key, value, 1)
	if err != nil {
		return 0, err
	}
	return stored[0], nil
}

// Get retrieves key from the owner of the key's point.
func (n *Node) Get(ctx context.Context, key string) (string, bool, error) {
	return n.GetReplicated(ctx, key, 1)
}
