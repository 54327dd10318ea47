package core

import "repro/internal/ocube"

// TokenEventKind classifies one observed protocol event for the
// flight-recorder hook (Config.Observe).
type TokenEventKind uint8

// The observable protocol events: the token's journey (lend, outright
// transfer, forward of a loan), the requests that steer it, grants, the
// recovery events (regeneration, stale-token sighting) that explain epoch
// bumps in a lineage dump, the search_father spans of Section 5 that
// bracket a recovery, and the messages a guard discarded.
const (
	// TokenEvRequest: this node sent or forwarded a request toward its
	// father (Peer is the hop target, Seq the request sequence).
	TokenEvRequest TokenEventKind = iota + 1
	// TokenEvLend: this node lent the token to Peer, expecting it back.
	TokenEvLend
	// TokenEvTransfer: this node transferred the token outright to Peer
	// (including the return leg of a loan).
	TokenEvTransfer
	// TokenEvForward: this node forwarded a token it held on loan.
	TokenEvForward
	// TokenEvGrant: this node entered the critical section (Fence is the
	// composed epoch<<32|counter fencing token, Peer the lender if any).
	TokenEvGrant
	// TokenEvRegenerated: this node regenerated a presumed-lost token
	// (Reason says which recovery path fired).
	TokenEvRegenerated
	// TokenEvStale: this node sighted and discarded a stale-epoch token
	// from Peer.
	TokenEvStale
	// TokenEvSearchStarted: this node began a search_father attempt (a
	// suspicion, an anomaly, a recovery, or a confirmation sweep's
	// restart); Seq is the starting phase.
	TokenEvSearchStarted
	// TokenEvSearchEnded: this node's search_father concluded; Peer is the
	// adopted father, or ocube.None when the search made this node the
	// root, and Seq is the number of nodes tested.
	TokenEvSearchEnded
	// TokenEvDropped: a defensive guard discarded a message from Peer
	// (Seq and Epoch are the message's); Reason names the guard.
	TokenEvDropped
)

// String returns the kind's lineage-dump label.
func (k TokenEventKind) String() string {
	switch k {
	case TokenEvRequest:
		return "request"
	case TokenEvLend:
		return "lend"
	case TokenEvTransfer:
		return "transfer"
	case TokenEvForward:
		return "forward"
	case TokenEvGrant:
		return "grant"
	case TokenEvRegenerated:
		return "regenerated"
	case TokenEvStale:
		return "stale-token"
	case TokenEvSearchStarted:
		return "search-started"
	case TokenEvSearchEnded:
		return "search-ended"
	case TokenEvDropped:
		return "dropped"
	}
	return "unknown"
}

// TokenEvent is one protocol event reported through Config.Observe. It
// is passed by value and holds no pointers, so an observer may retain
// it without aliasing node state.
type TokenEvent struct {
	Kind TokenEventKind
	Self ocube.Pos // the reporting node
	// Instance is the instance the reporting node was minted for
	// (Host.NewNode); NoInstance for a single-instance node.
	Instance uint64
	Peer     ocube.Pos // the other endpoint (ocube.None when not applicable)
	Epoch    uint32    // token epoch carried by or known at the event
	Fence    uint64    // composed fencing token where one applies, else 0
	Seq      uint64    // request sequence, search phase or tested count (see the kinds), else 0
	// Reason is the recovery path label of a regeneration or stale
	// sighting, or the guard that dropped a message.
	Reason string
}

// observeSend classifies an outgoing message for the Observe hook. Kept
// out of send itself so a non-observed run pays only the nil check
// there.
func (n *Node) observeSend(m Message) {
	switch m.Kind {
	case KindRequest:
		n.observe(TokenEvent{Kind: TokenEvRequest, Peer: m.To, Epoch: m.Epoch, Seq: m.Seq})
	case KindToken:
		kind := TokenEvForward
		switch m.Lender {
		case n.h.cfg.Self:
			kind = TokenEvLend
		case ocube.None:
			kind = TokenEvTransfer
		}
		n.observe(TokenEvent{Kind: kind, Peer: m.To, Epoch: m.Epoch, Fence: composeFence(m.Epoch, m.Fence)})
	}
}

// composeFence builds the client-visible fencing token from a message's
// epoch and per-epoch counter (the same composition emitGrant uses).
func composeFence(epoch uint32, ctr uint32) uint64 {
	return uint64(epoch)<<32 | uint64(ctr)
}
