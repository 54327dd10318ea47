package sim

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/ocube"
)

// Peer is one node of a distributed mutual-exclusion algorithm driven by
// the Network. The open-cube core.Node implements it, and so do the
// classic Raymond and Naimi-Trehel baselines — every algorithm runs on
// the same typed-event engine, delay models and failure injection, which
// is what makes the comparison experiments fair.
//
// Implementations are single-threaded state machines that communicate
// through core.Message and emit core.Effect slices under the arena
// lifetime rule (effect.go): a returned slice and the pointer-boxed
// effects in it are valid only until the next call into the same peer.
type Peer interface {
	// RequestCS registers the local wish to enter the critical section.
	// A request overlapping an earlier unfinished one returns an error
	// (drivers log and drop it, modelling impatient re-requests).
	RequestCS() ([]core.Effect, error)
	// ReleaseCS ends the critical section.
	ReleaseCS() ([]core.Effect, error)
	// HandleMessage delivers one protocol message.
	HandleMessage(m core.Message) []core.Effect
	// Busy reports outstanding protocol activity (quiescence detection);
	// pending timers alone must not report busy.
	Busy() bool
}

// TimerPeer is implemented by peers that arm timers via StartTimer
// effects (the open-cube node's failure machinery). Peers without timers
// never receive timer fires.
type TimerPeer interface {
	Peer
	// HandleTimer delivers a timer fire; stale generations are ignored.
	HandleTimer(kind core.TimerKind, gen uint64) []core.Effect
	// TimerGen returns the live generation for kind, so drivers can
	// discard dead fires without delivering them.
	TimerGen(kind core.TimerKind) uint64
}

// RecoveringPeer is implemented by peers with an explicit crash-recovery
// protocol (the open-cube node's Section 5 rejoin). Peers without it
// simply resume with their pre-crash state when the driver restarts them
// — the behavior of the classic baselines, which is exactly what the E8
// experiment makes visible.
type RecoveringPeer interface {
	Peer
	// Recover restarts the peer after a crash.
	Recover() []core.Effect
}

// TokenPeer is implemented by peers that can report token possession, so
// the driver's token-conservation accounting (Network.LiveTokens) works
// across algorithms.
type TokenPeer interface {
	Peer
	// TokenHere reports whether the peer currently holds the token.
	TokenHere() bool
}

// Keyed is one position of a keyed network: every lock instance hosted
// there behind one state machine (the lockspace's keyed node), which the
// Network steps in place under NewKeyed. Each input is followed by Outbox,
// whose envelopes go on the wire in send order, and by Aim, which re-aims
// the position's one timer slot. Nothing the Network calls may call back
// into it.
type Keyed interface {
	// Envelope delivers one instance's protocol message.
	Envelope(now time.Duration, env core.Envelope)
	// Wish registers the local wish to lock instance inst; an error
	// refuses it.
	Wish(now time.Duration, inst uint64) error
	// Tick fires every deadline due by now; the Network calls it when the
	// timer Aim set goes off.
	Tick(now time.Duration)
	// Crash is the instant the position fail-stops: every hold ends and
	// every deadline is void.
	Crash()
	// Recover restarts the position after a crash.
	Recover(now time.Duration)
	// Outbox returns what the last input sent, in send order; it expires
	// at the next input.
	Outbox() []core.Envelope
	// Aim reports the deadline the timer has to be set for, when it must
	// be moved; a fire that finds nothing due costs one empty Tick.
	Aim() (time.Duration, bool)
	// Busy reports outstanding protocol activity (quiescence detection).
	Busy() bool
}

// Algorithm names a mutual-exclusion algorithm and constructs its peers.
// The zero value means the open-cube algorithm built from Config.Node.
type Algorithm struct {
	// Name labels the algorithm in errors and experiment output.
	Name string
	// New constructs the n peers, positions 0..n-1, with the token
	// initially at position 0.
	New func(n int) ([]Peer, error)
}

// openCube returns the paper's algorithm as an Algorithm: 2^p core.Node
// state machines configured from the template nc (Self and P are filled
// in per node).
func openCube(p int, nc core.Config) Algorithm {
	return Algorithm{
		Name: "open-cube",
		New: func(n int) ([]Peer, error) {
			peers := make([]Peer, n)
			for i := 0; i < n; i++ {
				cfg := nc
				cfg.Self = ocube.Pos(i)
				cfg.P = p
				node, err := core.NewNode(cfg)
				if err != nil {
					return nil, fmt.Errorf("sim: node %d: %w", i, err)
				}
				peers[i] = node
			}
			return peers, nil
		},
	}
}

// Interface compliance: the open-cube node implements every optional
// capability.
var (
	_ TimerPeer      = (*core.Node)(nil)
	_ RecoveringPeer = (*core.Node)(nil)
	_ TokenPeer      = (*core.Node)(nil)
)
