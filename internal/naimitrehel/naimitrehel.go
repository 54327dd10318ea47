// Package naimitrehel implements Naimi & Trehel's distributed mutual
// exclusion algorithm (ICDCS 1987) — the fully dynamic baseline the paper
// compares against. Each node keeps a probable-owner pointer ("last")
// that is path-compressed by every request, plus a "next" pointer that
// threads waiting requesters into a distributed FIFO queue; the token
// jumps directly from one critical-section user to the next.
//
// Average messages per request is O(log N); the worst case is O(N)
// because the last-pointer forest can degenerate into a chain.
//
// Nodes implement sim.Peer over the typed core.Message wire format: a
// KindRequest carries the original requester in Source end to end
// (intermediate nodes forward, never re-issue), and KindToken hands the
// token to the next waiting requester. The baseline therefore runs on
// the same typed-event engine, delay models and failure injection as the
// open-cube algorithm; it has no failure machinery of its own, which the
// E8 experiment makes measurable.
package naimitrehel

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/ocube"
	"repro/internal/sim"
)

// Node is one participant. Construct a full system with NewSystem.
type Node struct {
	self       ocube.Pos
	last       ocube.Pos // probable owner
	next       ocube.Pos // next requester in the distributed queue, or None
	token      bool
	requesting bool
	inCS       bool

	em core.Emitter
}

var _ sim.TokenPeer = (*Node)(nil)

// NewSystem builds n nodes with the classic initialization: node 0 owns
// the token and everyone's probable owner is node 0.
func NewSystem(n int) ([]*Node, error) {
	if n <= 0 {
		return nil, fmt.Errorf("naimitrehel: n=%d out of range", n)
	}
	nodes := make([]*Node, n)
	for i := 0; i < n; i++ {
		nodes[i] = &Node{self: ocube.Pos(i), last: 0, next: ocube.None, token: i == 0}
	}
	return nodes, nil
}

// Algorithm returns Naimi-Trehel's algorithm for the unified simulator;
// it runs at any node count.
func Algorithm() sim.Algorithm {
	return sim.Algorithm{
		Name: "classic-naimi-trehel",
		New: func(n int) ([]sim.Peer, error) {
			nodes, err := NewSystem(n)
			if err != nil {
				return nil, err
			}
			peers := make([]sim.Peer, n)
			for i, node := range nodes {
				peers[i] = node
			}
			return peers, nil
		},
	}
}

// Last exposes the probable-owner pointer for tests.
func (n *Node) Last() ocube.Pos { return n.last }

// Next exposes the queue-thread pointer for tests (ocube.None when unset).
func (n *Node) Next() ocube.Pos { return n.next }

// HasToken reports token ownership.
func (n *Node) HasToken() bool { return n.token }

// TokenHere implements sim.TokenPeer.
func (n *Node) TokenHere() bool { return n.token }

// Busy implements sim.Peer: a node is busy from its request until it
// leaves the critical section, or while a successor waits on its next
// pointer.
func (n *Node) Busy() bool { return n.requesting || n.next != ocube.None }

// send emits a protocol message; Source carries the requester the
// message serves.
func (n *Node) send(kind core.Kind, to, source ocube.Pos) {
	n.em.Send(core.Message{Kind: kind, From: n.self, To: to,
		Source: source, Target: source, Lender: ocube.None})
}

// RequestCS implements sim.Peer. Overlapping local requests are rejected
// with core.ErrBusy, matching the open-cube node's driver contract.
func (n *Node) RequestCS() ([]core.Effect, error) {
	n.em.Begin()
	if n.requesting {
		return nil, core.ErrBusy
	}
	n.requesting = true
	if n.last == n.self {
		// We are the probable owner: either we hold the idle token (enter
		// directly) or the queue threads to us via someone's next.
		if n.token {
			n.inCS = true
			n.em.Grant(0)
		}
		return n.em.Take(), nil
	}
	n.send(core.KindRequest, n.last, n.self)
	n.last = n.self
	return n.em.Take(), nil
}

// ReleaseCS implements sim.Peer.
func (n *Node) ReleaseCS() ([]core.Effect, error) {
	n.em.Begin()
	if !n.inCS {
		return nil, core.ErrNotInCS
	}
	n.inCS = false
	n.requesting = false
	if n.next != ocube.None {
		n.send(core.KindToken, n.next, n.next)
		n.token = false
		n.next = ocube.None
	}
	return n.em.Take(), nil
}

// HandleMessage implements sim.Peer. A kind outside the protocol is
// discarded silently.
func (n *Node) HandleMessage(m core.Message) []core.Effect {
	n.em.Begin()
	switch m.Kind {
	case core.KindRequest:
		requester := m.Source
		if n.last == n.self {
			if n.requesting {
				// We are queued ourselves: thread the requester behind us.
				n.next = requester
			} else if n.token {
				// Idle owner: hand the token over directly.
				n.send(core.KindToken, requester, requester)
				n.token = false
			} else {
				// Owner-to-be (token en route): thread behind us.
				n.next = requester
			}
		} else {
			n.send(core.KindRequest, n.last, requester)
		}
		n.last = requester
	case core.KindToken:
		n.token = true
		if n.requesting {
			n.inCS = true
			n.em.Grant(0)
		}
	}
	return n.em.Take()
}
