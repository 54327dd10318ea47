package core

import (
	"fmt"
	"time"

	"repro/internal/ocube"
)

// TimerKind enumerates the node's logical timers. Each kind has an
// associated generation counter; re-arming or cancelling a timer bumps the
// generation, so drivers never need to cancel anything — stale fires are
// ignored by HandleTimer.
type TimerKind uint8

const (
	// TimerSuspicion fires when an asking node has waited too long for the
	// token (Section 5: at least 2·pmax·δ after sending its request) and
	// must start search_father.
	TimerSuspicion TimerKind = iota + 1
	// TimerTokenReturn fires when a lender root's loan is overdue
	// (2δ+e or (pmax+1)δ+e) and triggers an enquiry to the source.
	TimerTokenReturn
	// TimerEnquiry fires when an enquiry got no answer within 2δ; the
	// source is presumed down and the token is regenerated.
	TimerEnquiry
	// TimerSearchRound closes a search_father test round after 2δ:
	// unanswered nodes are discarded, deferred nodes are retested.
	TimerSearchRound
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
	case TimerEnquiry:
		return "enquiry"
	case TimerSearchRound:
		return "search-round"
	case TimerTransferAck:
		return "transfer-ack"
	default:
		return fmt.Sprintf("timer(%d)", uint8(k))
	}
}

// Effect is an action requested by the state machine; drivers (the
// discrete-event simulator or the live goroutine runtime) execute effects
// in order.
//
// Effects are handed out as pointers into per-node scratch arenas that
// are recycled at the next call into the node: a driver must execute (or
// copy) every effect of a returned slice before delivering further
// inputs to that node, the same lifetime rule the effect slice itself
// has always had. Boxing pointers instead of values keeps the hot path
// allocation-free — emitting an effect never touches the heap once the
// arenas are warm.
type Effect interface{ effect() }

// effectArena holds the per-node scratch storage behind the Effect
// pointers handed to drivers. Each slice is truncated (capacity kept)
// when the next driver call begins.
type effectArena struct {
	sends  []Send
	timers []StartTimer
	grants []Grant
	drops  []Dropped
	regens []TokenRegenerated
	roots  []BecameRoot
	starts []SearchStarted
	ends   []SearchEnded
}

// reset recycles every arena for the next accumulation cycle.
func (a *effectArena) reset() {
	a.sends = a.sends[:0]
	a.timers = a.timers[:0]
	a.grants = a.grants[:0]
	a.drops = a.drops[:0]
	a.regens = a.regens[:0]
	a.roots = a.roots[:0]
	a.starts = a.starts[:0]
	a.ends = a.ends[:0]
}

// len counts the live arena entries (pool-invariant checks only).
func (a *effectArena) len() int {
	return len(a.sends) + len(a.timers) + len(a.grants) + len(a.drops) +
		len(a.regens) + len(a.roots) + len(a.starts) + len(a.ends)
}

// Send transmits a message. Msg.From and Msg.To are always set.
type Send struct{ Msg Message }

// Grant tells the application layer it now holds the token and may enter
// the critical section. The application must eventually call ReleaseCS.
type Grant struct {
	// Lender is the node the token will be given back to on release
	// (self if the node became the root).
	Lender ocube.Pos
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

// TokenRegenerated reports that the node created a replacement token
// (observability; safety analysis relies on these being genuine losses).
// Epoch is the generation stamped onto the replacement: every token the
// node sends from now on carries it, which is what makes a surviving
// older token detectable (see StaleToken).
type TokenRegenerated struct {
	Reason string
	Epoch  uint32
}

// StaleToken reports the sighting of a token whose epoch predates a
// regeneration this node knows of: the regeneration did not replace a
// lost token — it raced one that was still alive. The counter separates
// "regeneration raced a live token" from true loss in the E8 fault
// reports. Detection is a lower bound: only nodes that already learned
// the newer epoch can recognize the survivor.
type StaleToken struct {
	Msg   Message
	Epoch uint32 // epoch carried by the sighted token
	Known uint32 // newer epoch the observer had already seen
}

// BecameRoot reports that the node concluded it is the new tree root
// (observability).
type BecameRoot struct{ Reason string }

// Dropped reports a message discarded by a defensive guard
// (observability).
type Dropped struct {
	Msg    Message
	Reason string
}

// SearchStarted reports that search_father began at the given phase
// (observability; the harness uses it to count per-search tested nodes).
type SearchStarted struct{ Phase int }

// SearchEnded reports search_father completion. Father is the adopted
// father, or None if the node became the root. Tested is the number of
// test messages sent during the whole search.
type SearchEnded struct {
	Father ocube.Pos
	Tested int
}

// The effect marker is on the pointer receiver: nodes emit *Send,
// *Grant, … pointing into their scratch arenas, and drivers type-switch
// on the pointer types.
func (*Send) effect()             {}
func (*Grant) effect()            {}
func (*StartTimer) effect()       {}
func (*TokenRegenerated) effect() {}
func (*BecameRoot) effect()       {}
func (*Dropped) effect()          {}
func (*SearchStarted) effect()    {}
func (*SearchEnded) effect()      {}
func (*StaleToken) effect()       {}
