// Package raymond implements K. Raymond's tree-based distributed mutual
// exclusion algorithm (ACM TOCS 7(1), 1989) — the static-tree baseline the
// paper compares against. The token (privilege) moves hop by hop along a
// fixed spanning tree; each node keeps a FIFO queue of neighbour requests
// and a holder pointer towards the token.
//
// Worst-case messages per request is O(d) where d is the tree diameter;
// on the balanced binomial tree used here, O(log2 N).
//
// Nodes implement sim.Peer over the typed core.Message wire format
// (KindRequest for Raymond's REQUEST, KindToken for the PRIVILEGE), so
// the baseline runs on the same typed-event engine, delay models and
// failure injection as the open-cube algorithm. Raymond's algorithm has
// no failure machinery: a crashed node resumes with its pre-crash state
// and every message lost while it was down stays lost — the E8
// experiment quantifies what that costs.
package raymond

import (
	"fmt"
	"math/bits"

	"repro/internal/core"
	"repro/internal/ocube"
	"repro/internal/sim"
)

// Node is one participant. Construct a full system with NewSystem.
type Node struct {
	self     ocube.Pos
	holder   ocube.Pos // self, or the neighbour in the token's direction
	using    bool
	asked    bool
	wanting  bool        // a local request is pending or executing
	requestQ []ocube.Pos // pending requesters: neighbours or self

	em core.Emitter
}

var _ sim.TokenPeer = (*Node)(nil)

// NewSystem builds 2^p nodes arranged on the pristine open-cube tree
// (a binomial tree, diameter log2 N) with the privilege at position 0.
// Raymond's algorithm works on any static spanning tree; using the same
// tree as the open-cube algorithm makes the comparison fair.
func NewSystem(p int) ([]*Node, error) {
	if p < 0 || p > 20 {
		return nil, fmt.Errorf("raymond: order p=%d out of range", p)
	}
	n := 1 << p
	nodes := make([]*Node, n)
	for i := 0; i < n; i++ {
		holder := ocube.Pos(i)
		if i != 0 {
			// Initially the privilege is at node 0: holder points along
			// the tree towards 0, i.e. at the initial open-cube father.
			holder = ocube.InitialFather(ocube.Pos(i))
		}
		nodes[i] = &Node{self: ocube.Pos(i), holder: holder}
	}
	return nodes, nil
}

// Algorithm returns Raymond's algorithm for the unified simulator. The
// node count must be a power of two (the binomial-tree layout).
func Algorithm() sim.Algorithm {
	return sim.Algorithm{
		Name: "classic-raymond",
		New: func(n int) ([]sim.Peer, error) {
			p := bits.Len(uint(n)) - 1
			if n < 1 || 1<<p != n {
				return nil, fmt.Errorf("raymond: node count %d is not a power of two", n)
			}
			nodes, err := NewSystem(p)
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

// Holder exposes the holder pointer for tests.
func (n *Node) Holder() ocube.Pos { return n.holder }

// QueueLen returns the number of queued requests.
func (n *Node) QueueLen() int { return len(n.requestQ) }

// TokenHere implements sim.TokenPeer: the privilege is here when the
// holder pointer is self.
func (n *Node) TokenHere() bool { return n.holder == n.self }

// Busy implements sim.Peer: activity is outstanding while a local
// request is unserved or neighbour requests are queued.
func (n *Node) Busy() bool { return n.wanting || n.using || len(n.requestQ) > 0 }

// assignPrivilege passes the privilege to the queue head when possible
// (Raymond's ASSIGN_PRIVILEGE).
func (n *Node) assignPrivilege() {
	if n.holder != n.self || n.using || len(n.requestQ) == 0 {
		return
	}
	head := n.requestQ[0]
	n.requestQ = n.requestQ[1:]
	n.asked = false
	if head == n.self {
		n.using = true
		n.em.Grant(0)
		return
	}
	n.holder = head
	n.em.Send(core.Message{Kind: core.KindToken, From: n.self, To: head,
		Source: head, Lender: ocube.None})
}

// makeRequest forwards a request towards the holder when one is needed
// (Raymond's MAKE_REQUEST).
func (n *Node) makeRequest() {
	if n.holder == n.self || len(n.requestQ) == 0 || n.asked {
		return
	}
	n.asked = true
	n.em.Send(core.Message{Kind: core.KindRequest, From: n.self, To: n.holder,
		Source: n.self, Target: n.self})
}

// RequestCS implements sim.Peer. Overlapping local requests are rejected
// with core.ErrBusy, matching the open-cube node's driver contract.
func (n *Node) RequestCS() ([]core.Effect, error) {
	n.em.Begin()
	if n.wanting {
		return nil, core.ErrBusy
	}
	n.wanting = true
	n.requestQ = append(n.requestQ, n.self)
	n.assignPrivilege()
	n.makeRequest()
	return n.em.Take(), nil
}

// ReleaseCS implements sim.Peer.
func (n *Node) ReleaseCS() ([]core.Effect, error) {
	n.em.Begin()
	if !n.using {
		return nil, core.ErrNotInCS
	}
	n.using = false
	n.wanting = false
	n.assignPrivilege()
	n.makeRequest()
	return n.em.Take(), nil
}

// HandleMessage implements sim.Peer. A kind outside the protocol is
// discarded silently.
func (n *Node) HandleMessage(m core.Message) []core.Effect {
	n.em.Begin()
	switch m.Kind {
	case core.KindRequest:
		n.requestQ = append(n.requestQ, m.From)
	case core.KindToken:
		n.holder = n.self
	}
	n.assignPrivilege()
	n.makeRequest()
	return n.em.Take()
}
