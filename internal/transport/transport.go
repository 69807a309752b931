// Package transport abstracts the request/response messaging layer the
// live overlay (package overlay) runs on. Two implementations are
// provided: an in-memory transport for simulating hundreds of nodes in
// one process (a node fails by unregistering), and a TCP transport
// (length-prefixed JSON over loopback or a real network) demonstrating
// the same protocol on sockets.
package transport

import (
	"context"
	"errors"
	"fmt"
	"sync"
)

// NodeID identifies an overlay node on a transport. The overlay uses
// the node's metric-space point as its id.
type NodeID uint64

// Handler processes one request and returns the response payload.
// Handlers must be safe for concurrent use.
type Handler func(req []byte) ([]byte, error)

// ErrUnreachable is returned by Call when the destination is not
// registered, has closed, or the network dropped the request.
var ErrUnreachable = errors.New("transport: destination unreachable")

// Transport delivers requests between nodes.
type Transport interface {
	// Listen registers h as the handler for node id and returns a
	// function that unregisters it. Listening twice on one id is an
	// error.
	Listen(id NodeID, h Handler) (close func(), err error)
	// Call sends req to node `to` and waits for its response.
	Call(ctx context.Context, to NodeID, req []byte) ([]byte, error)
}

// InMem is a process-local Transport: a Call runs the destination's
// handler on the caller's goroutine. The zero value is not usable;
// construct with NewInMem.
type InMem struct {
	mu       sync.RWMutex
	handlers map[NodeID]Handler
}

// NewInMem returns an in-memory transport. Delivery draws nothing at
// random, so the seed is unused; the parameter stays because every
// caller passes one.
func NewInMem(uint64) *InMem {
	return &InMem{handlers: make(map[NodeID]Handler)}
}

// Listen implements Transport.
func (t *InMem) Listen(id NodeID, h Handler) (func(), error) {
	if h == nil {
		return nil, errors.New("transport: nil handler")
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, exists := t.handlers[id]; exists {
		return nil, fmt.Errorf("transport: node %d already listening", id)
	}
	t.handlers[id] = h
	return func() {
		t.mu.Lock()
		defer t.mu.Unlock()
		delete(t.handlers, id)
	}, nil
}

// Call implements Transport.
func (t *InMem) Call(ctx context.Context, to NodeID, req []byte) ([]byte, error) {
	t.mu.RLock()
	h, ok := t.handlers[to]
	t.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: node %d", ErrUnreachable, to)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return h(req)
}

var _ Transport = (*InMem)(nil)
