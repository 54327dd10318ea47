// Package transport carries protocol traffic between live nodes — the
// communication system the paper assumes reliable with a bounded
// transmission delay δ (Section 2). One stack provides it: a Session
// (session.go) makes an exactly-once BatchTransport out of any FrameLink
// by sequence numbers, acks and retransmission, and two FrameLinks exist
// — the in-memory SessMesh for single-process clusters (NewCluster,
// tests, benchmarks) and SessTCP (tcp.go) for multi-process deployment
// (NewTCPNode, examples/tcpcluster, ocmxchaos node), whose frames travel
// in the one fixed binary layout of wire.go.
package transport

import (
	"errors"

	"repro/internal/core"
	"repro/internal/ocube"
)

// ErrClosed is returned by sends after Close.
var ErrClosed = errors.New("transport: closed")

// BatchTransport carries instance-tagged envelopes for one lockspace
// node. The unit of transmission is a batch: everything one step of the
// node produced for the same destination travels as a single frame, so a
// request touching many instances costs one syscall per destination
// instead of one per message — the lockspace's per-destination batching
// rides directly on this seam.
type BatchTransport interface {
	// SendBatch transmits the batch to node to. The callee owns nothing:
	// implementations copy the slice before returning, so callers may
	// reuse their buffers. It must not block indefinitely.
	SendBatch(to ocube.Pos, batch []core.Envelope) error
	// RecvBatch returns the channel of inbound batches. It is closed when
	// the transport closes.
	RecvBatch() <-chan []core.Envelope
	// Close releases resources and unblocks receivers.
	Close() error
}
