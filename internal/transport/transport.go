// Package transport carries protocol traffic between live nodes — the
// communication system the paper assumes reliable with a bounded
// transmission delay δ (Section 2). One stack provides it. A Machine
// (machine.go) is the session discipline — sequence numbers within a
// 64-frame window that is a wire constant, acks that are the receiver's
// dedup window, retransmission — as a pure state machine with two
// drivers: a Session (session.go) makes an exactly-once BatchTransport
// out of any FrameLink, and internal/sim steps one Machine per node from
// its event heap. Two FrameLinks exist — the in-memory SessMesh for
// single-process clusters (NewCluster, tests, benchmarks) and SessTCP
// (tcp.go) for multi-process deployment (NewTCPNode, examples/tcpcluster,
// ocmxchaos node), whose frames travel in the one fixed binary layout of
// wire.go.
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
	// reuse their buffers. It does not wait for the peer — the lockspace
	// calls it with its node's mutex held: what the peer is not ready for
	// queues inside the transport, or is lost, which the protocol tolerates.
	SendBatch(to ocube.Pos, batch []core.Envelope) error
	// RecvBatch returns the channel of inbound batches. It is closed when
	// the transport closes.
	RecvBatch() <-chan []core.Envelope
	// Close releases resources and unblocks receivers.
	Close() error
}
