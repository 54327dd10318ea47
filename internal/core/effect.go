package core

import (
	"fmt"
	"time"
)

// TimerKind enumerates the node's logical timers: one watchdog per duty
// a fault-tolerant node keeps (Section 5) — the request it waits on, the
// loan it made as root, and the unlent transfer it guards. Each kind has
// an associated generation counter; re-arming or cancelling a timer bumps
// the generation, so drivers never need to cancel anything — stale fires
// are ignored by HandleTimer.
type TimerKind uint8

const (
	// TimerSuspicion is the mandate's watchdog. While no search runs it
	// fires when an asking node has waited too long for the token
	// (Section 5: at least 2·pmax·δ after sending its request) and must
	// start search_father; while a search runs it closes the search's
	// 2δ test round: unanswered nodes are discarded, deferred nodes are
	// retested.
	TimerSuspicion TimerKind = iota + 1
	// TimerTokenReturn is the loan's watchdog. It fires when a lender
	// root's loan is overdue (2δ+e or (pmax+1)δ+e) and triggers an
	// enquiry to the source; then when the enquiry got no answer within
	// 2δ, or when a token the source claimed returned did not arrive
	// within δ: either way the token is regenerated.
	TimerTokenReturn
	// TimerTransferAck fires when an unlent token transfer was not
	// acknowledged within 2δ: the recipient was dead at delivery, the
	// token is lost, and the sender — its guardian — regenerates it.
	TimerTransferAck

	numTimerKinds = iota
)

// NumTimerKinds is the number of distinct timer kinds; drivers that keep
// per-(node, kind) timer state size their tables with it.
const NumTimerKinds = int(numTimerKinds)

// String names the timer kind.
func (k TimerKind) String() string {
	switch k {
	case TimerSuspicion:
		return "suspicion"
	case TimerTokenReturn:
		return "token-return"
	case TimerTransferAck:
		return "transfer-ack"
	default:
		return fmt.Sprintf("timer(%d)", uint8(k))
	}
}

// Effect is an action a driver must execute: a *Send, *StartTimer or
// *Grant. Drivers (the discrete-event simulator or the live runtime)
// execute effects in order. Everything a node merely reports — drops,
// regenerations, stale sightings, search spans — goes through
// Config.Observe instead, so no driver walks past what it does not do.
//
// Effects are handed out as pointers into an Emitter's scratch arenas
// that are recycled at the next call into the state machine: a driver
// must execute (or copy) every effect of a returned slice before
// delivering further inputs to it, the same lifetime rule the effect
// slice itself has always had. Boxing pointers instead of values keeps
// the hot path allocation-free — emitting an effect never touches the
// heap once the arenas are warm.
type Effect interface{ effect() }

// Send transmits a message. Msg.From and Msg.To are always set.
type Send struct{ Msg Message }

// Grant tells the application layer it now holds the token and may enter
// the critical section. The application must eventually call ReleaseCS.
type Grant struct {
	// Fence is the client-visible fencing token of this grant:
	// (tokenEpoch<<32 | per-token grant counter), strictly increasing
	// across the grants of one token lineage, with regenerated tokens
	// outranking the copies they replace. Zero for algorithms that do not
	// fence (the classic baselines).
	Fence uint64
}

// StartTimer schedules a timer fire: after Delay the driver must call
// HandleTimer(Kind, Gen). Earlier generations of the same kind are stale
// and ignored, so drivers may simply let them fire.
type StartTimer struct {
	Kind  TimerKind
	Gen   uint64
	Delay time.Duration
}

// The effect marker is on the pointer receiver: an Emitter hands out
// *Send, *Grant and *StartTimer pointing into its scratch arenas, and
// drivers type-switch on the pointer types.
func (*Send) effect()       {}
func (*Grant) effect()      {}
func (*StartTimer) effect() {}
