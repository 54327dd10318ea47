// Package transport carries protocol messages between live nodes — the
// communication system the paper assumes reliable with a bounded
// transmission delay δ (Section 2). Two implementations are provided: an
// in-memory Mesh for single-process clusters (examples, tests,
// benchmarks) and a TCP transport with fixed-layout binary frames
// (wire.go) for multi-process deployment (examples/tcpcluster).
package transport

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/ocube"
)

// ErrClosed is returned by Send after Close.
var ErrClosed = errors.New("transport: closed")

// Transport delivers protocol messages for one node.
type Transport interface {
	// Send transmits m to m.To. It must not block indefinitely.
	Send(m core.Message) error
	// Recv returns the channel of inbound messages. It is closed when the
	// transport closes.
	Recv() <-chan core.Message
	// Close releases resources and unblocks receivers.
	Close() error
}

// Mesh is an in-memory switchboard connecting N endpoints. Message order
// is preserved per sender-receiver pair (FIFO channels); the algorithm
// does not require it.
type Mesh struct {
	mu      sync.Mutex
	boxes   []chan core.Message
	closed  bool
	sent    int64
	dropped int64
}

// MeshStats are mesh-wide delivery counters. A nonzero Dropped means an
// inbox overflowed: the send returned an error the caller may have
// treated as message loss (the cluster runtime deliberately does — the
// protocol's failure machinery absorbs it), so the counter is how an
// operator tells sustained overflow from a healthy mesh.
type MeshStats struct {
	// Sent counts messages accepted into an inbox.
	Sent int64
	// Dropped counts messages rejected because the destination inbox was
	// full.
	Dropped int64
}

// Stats returns a snapshot of the mesh-wide delivery counters.
func (m *Mesh) Stats() MeshStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return MeshStats{Sent: m.sent, Dropped: m.dropped}
}

// NewMesh builds a mesh of n endpoints with the given per-node buffer.
func NewMesh(n, buffer int) (*Mesh, error) {
	if n <= 0 {
		return nil, fmt.Errorf("transport: mesh size %d", n)
	}
	if buffer < 1 {
		buffer = 1024
	}
	m := &Mesh{boxes: make([]chan core.Message, n)}
	for i := range m.boxes {
		m.boxes[i] = make(chan core.Message, buffer)
	}
	return m, nil
}

// Endpoint returns node i's transport.
func (m *Mesh) Endpoint(i ocube.Pos) Transport {
	return &meshEndpoint{mesh: m, self: i}
}

// Close closes every inbox.
func (m *Mesh) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil
	}
	m.closed = true
	for _, box := range m.boxes {
		close(box)
	}
	return nil
}

func (m *Mesh) send(msg core.Message) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return ErrClosed
	}
	if !msg.To.Valid(len(m.boxes)) {
		return fmt.Errorf("transport: destination %v out of range", msg.To)
	}
	select {
	case m.boxes[msg.To] <- msg:
		m.sent++
		return nil
	default:
		m.dropped++
		return fmt.Errorf("transport: inbox of %v full", msg.To)
	}
}

type meshEndpoint struct {
	mesh *Mesh
	self ocube.Pos
}

func (e *meshEndpoint) Send(m core.Message) error { return e.mesh.send(m) }

func (e *meshEndpoint) Recv() <-chan core.Message { return e.mesh.boxes[e.self] }

func (e *meshEndpoint) Close() error { return nil } // owned by the mesh

var _ Transport = (*meshEndpoint)(nil)
