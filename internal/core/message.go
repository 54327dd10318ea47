package core

import (
	"fmt"

	"repro/internal/ocube"
)

// Kind identifies the protocol message types. Request and Token implement
// Section 3.3; the remaining kinds implement the failure handling of
// Section 5.
type Kind uint8

const (
	// KindRequest asks that the token be sent to Target on behalf of
	// Source (the paper's request(j), extended with the source identity as
	// Section 5 prescribes for root enquiry).
	KindRequest Kind = iota + 1
	// KindToken carries the token; Lender is the node the token must be
	// given back to, or None for an outright transfer (the paper's
	// token(nil)).
	KindToken
	// KindEnquiry is sent by a lender root to the source of a loan whose
	// return is overdue.
	KindEnquiry
	// KindEnquiryReply answers an enquiry with Status.
	KindEnquiryReply
	// KindTest is a search_father probe for phase Phase.
	KindTest
	// KindTestReply answers a test with Reply, echoing Phase.
	KindTestReply
	// KindAnomaly tells Target that its father relation is structurally
	// invalid (detected after a recovery) and that it must search for a
	// new father.
	KindAnomaly
	// KindObsolete tells a request's target that the request it keeps
	// re-issuing was already granted through another copy (a
	// failure-recovery duplicate served elsewhere), so the pending
	// mandate must be abandoned. Without it a proxy whose mandate was
	// satisfied behind its back re-issues forever against the
	// duplicate-discard guard (protocol extension, see DESIGN.md).
	KindObsolete
	// KindTokenAck acknowledges the receipt of an UNLENT token (an
	// ownership transfer or a loan return). Lent tokens are guarded by
	// their lender's return watchdog; unlent ones have no natural
	// guardian, so with fault tolerance enabled the sender keeps
	// guardianship until this acknowledgment arrives and regenerates the
	// token if it never does (the recipient died). This is a protocol
	// extension over the paper, which leaves outright transfers to dead
	// nodes undetectable (see DESIGN.md §4).
	//
	// Who produces it depends on the path. Over a bare channel the
	// recipient's node sends it, one more message per unlent token. Over a
	// reliable session the channel already acknowledges the frame that
	// carried the token, so the session marks the token Receipted, the
	// recipient's node stays silent, and the sender's own session turns
	// the ack that retires the frame into this message, locally: it never
	// crosses the wire, and it says "delivered to the recipient's
	// session", not "adopted by the recipient's node".
	KindTokenAck
)

// String returns the lowercase protocol name of the kind.
func (k Kind) String() string {
	switch k {
	case KindRequest:
		return "request"
	case KindToken:
		return "token"
	case KindEnquiry:
		return "enquiry"
	case KindEnquiryReply:
		return "enquiry-reply"
	case KindTest:
		return "test"
	case KindTestReply:
		return "test-reply"
	case KindAnomaly:
		return "anomaly"
	case KindTokenAck:
		return "token-ack"
	case KindObsolete:
		return "obsolete"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// EnquiryStatus is the source's answer to a root enquiry (Section 5).
type EnquiryStatus uint8

const (
	// StatusInCS means "wait, I'm still in the critical section".
	StatusInCS EnquiryStatus = iota + 1
	// StatusTokenReturned means "I've already sent back the token".
	StatusTokenReturned
	// StatusTokenLost means the source never received the token, so it was
	// lost at a failed node on the path.
	StatusTokenLost
)

// String names the status.
func (s EnquiryStatus) String() string {
	switch s {
	case StatusInCS:
		return "in-cs"
	case StatusTokenReturned:
		return "token-returned"
	case StatusTokenLost:
		return "token-lost"
	default:
		return fmt.Sprintf("status(%d)", uint8(s))
	}
}

// TestReply is a node's answer to a search_father test probe.
type TestReply uint8

const (
	// ReplyOK means the answering node meets the requirements to be the
	// searcher's father (its power is at least the tested phase).
	ReplyOK TestReply = iota + 1
	// ReplyTryLater means the answering node's power may still increase
	// (it is currently asking), so the searcher must test it again.
	ReplyTryLater
	// ReplyBusy means the answering node is executing its critical
	// section: it holds the token right now, so the searcher must keep
	// retesting it until the critical section ends and the token's fate
	// is observable. Unlike a plain try-later, a busy answer is never
	// discarded by the queued-target rule — discarding the one node
	// known to hold the token would let an exhausted sweep regenerate a
	// second one.
	ReplyBusy
)

// String names the reply.
func (r TestReply) String() string {
	switch r {
	case ReplyOK:
		return "ok"
	case ReplyTryLater:
		return "try-later"
	case ReplyBusy:
		return "busy"
	default:
		return fmt.Sprintf("reply(%d)", uint8(r))
	}
}

// Message is the single wire format for all protocol traffic. Fields not
// meaningful for a Kind are zero. The TCP transports carry every field
// in a hand-written record (transport/wire.go); a field added here must
// be added there, which the transport's round-trip test enforces.
type Message struct {
	Kind Kind
	From ocube.Pos
	To   ocube.Pos

	// Request fields.
	Target ocube.Pos // node the token must be sent to
	Source ocube.Pos // ultimate critical-section requester
	Seq    uint64    // per-source request sequence, for duplicate discard
	Regen  bool      // request re-issued by failure recovery

	// Gen is the repair generation: every search_father a node starts
	// (including its recovery search) advances the node's generation, and
	// the search's test probes, their replies and the request the repair
	// finally re-issues all carry it. A reply whose generation is not the
	// receiver's current one predates the receiver's present repair — it
	// answers a probe from an earlier, abandoned search — and is
	// discarded; without the fence, carrying unresolved candidates across
	// phases (DESIGN.md §7) would let a stale duplicate answer resurrect
	// a dead round. (Declared in the padding after Regen, like Epoch, so
	// Message stays 80 bytes.)
	Gen uint32

	// Token fields (Source and Seq also identify the served request).
	Lender ocube.Pos // give the token back to this node; None = keep it

	// Failure-handling fields.
	// Phase is the search phase d of test/test-reply probes. Phases are
	// bounded by the cube order (≤ 20), so int32 is ample; narrowing it
	// from int freed the word that now holds Fence.
	Phase  int32
	Status EnquiryStatus // enquiry-reply
	Reply  TestReply     // test-reply
	// FromSearcher marks an ok test-reply sent from inside a concurrent
	// search_father. Such a promise can be undercut when the answering
	// search later concludes at a lower level, so a searcher only adopts
	// a flagged answerer with a SMALLER identity: adoption among
	// concurrent searchers flows strictly junior→senior, which makes the
	// smallest searcher the unique election winner and prevents both
	// father cycles and double token regeneration (an amendment to the
	// paper's concurrent-suspicion rules, see DESIGN.md).
	FromSearcher bool
	// Receipted marks an unlent KindToken whose delivery the carrying
	// session acknowledges to the sender's node itself (see KindTokenAck):
	// the recipient sends no KindTokenAck for it. Only a reliable session
	// sets it, on the batch it owns, so on every session-less path it is
	// false and the recipient acknowledges as before. (The last spare byte
	// beside the one-byte fields, so Message stays 80 bytes.)
	Receipted bool
	// Epoch is the token-generation stamp carried by token messages: every
	// regeneration increments the regenerator's epoch, so a token observed
	// with an epoch below the observer's proves a regeneration raced a
	// still-live token (the replaced token survived) rather than replacing
	// a genuinely lost one. Unless Config.EpochFence is set, reception never
	// behaves differently on a stale epoch: the node only reports the
	// sighting (TokenEvStale).
	// (Declared after the one-byte fields so it packs into their word.)
	Epoch uint32
	// Fence is the grant counter of the token carried by KindToken
	// messages: it travels with the token, increments on every grant, and
	// resets when a regeneration opens a new epoch. Composed with Epoch as
	// (Epoch<<32 | Fence) it yields the client-visible fencing token — a
	// value strictly increasing across the grants of any one token lineage,
	// with regenerated tokens always outranking the copies they replace.
	// (Fills the word freed by narrowing Phase, so Message stays 80 bytes.)
	Fence uint32
}

// String renders a compact human-readable form for logs and test failures.
func (m Message) String() string {
	switch m.Kind {
	case KindRequest:
		return fmt.Sprintf("request(target=%v src=%v seq=%d)%s %v->%v",
			m.Target, m.Source, m.Seq, regenMark(m.Regen), m.From, m.To)
	case KindToken:
		return fmt.Sprintf("token(lender=%v src=%v seq=%d) %v->%v",
			m.Lender, m.Source, m.Seq, m.From, m.To)
	case KindEnquiry:
		return fmt.Sprintf("enquiry(seq=%d) %v->%v", m.Seq, m.From, m.To)
	case KindEnquiryReply:
		return fmt.Sprintf("enquiry-reply(%v seq=%d) %v->%v", m.Status, m.Seq, m.From, m.To)
	case KindTest:
		return fmt.Sprintf("test(d=%d g=%d) %v->%v", m.Phase, m.Gen, m.From, m.To)
	case KindTestReply:
		return fmt.Sprintf("test-reply(%v d=%d g=%d) %v->%v", m.Reply, m.Phase, m.Gen, m.From, m.To)
	case KindAnomaly:
		return fmt.Sprintf("anomaly %v->%v", m.From, m.To)
	default:
		return fmt.Sprintf("%v %v->%v", m.Kind, m.From, m.To)
	}
}

func regenMark(regen bool) string {
	if regen {
		return "*"
	}
	return ""
}

// NoInstance is the Envelope.Instance value of untagged single-instance
// traffic: the classic one-mutex deployments never set an instance, so
// the zero value keeps their wire format and trace output unchanged.
const NoInstance uint64 = 0

// Envelope is the multi-instance wire unit: one protocol message tagged
// with the lock instance it belongs to. A lockspace multiplexes thousands
// of independent open-cube mutexes over one runtime by enveloping every
// message; single-instance deployments keep sending bare Messages, which
// drivers treat as Envelope{Instance: NoInstance}.
type Envelope struct {
	// Instance identifies the lock instance (NoInstance for the classic
	// single-mutex traffic). Live lockspaces derive it from the lock key
	// (lockspace.KeyInstance); the simulator uses dense ids 1..K.
	Instance uint64
	Msg      Message
}

// String renders the envelope with its instance tag.
func (e Envelope) String() string {
	if e.Instance == NoInstance {
		return e.Msg.String()
	}
	return fmt.Sprintf("[inst %d] %v", e.Instance, e.Msg)
}
