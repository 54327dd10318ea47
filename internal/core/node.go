// Package core implements the open-cube distributed mutual exclusion
// algorithm of Hélary & Mostefaoui (INRIA RR-2041, 1993) as a pure,
// deterministic state machine: inputs are messages, local calls and timer
// fires; outputs are Effects (sends, grants, timer arms), accumulated by
// an Emitter — the one effect accumulator of every algorithm in the tree:
// a node's lives in its Host, and the Raymond and Naimi-Trehel baselines
// hold their own. The package has no goroutines and no wall clock, so the
// same node code runs under the discrete-event simulator (internal/sim)
// and the live runtime (internal/lockspace).
//
// Sections 3.3 (the failure-free algorithm) and 5 (failure handling) of
// the paper are implemented in node.go and failure.go respectively; the
// transit/proxy decision of the general scheme is delegated to a Policy
// (policy.go).
package core

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/ocube"
)

// Config parameterizes a node. Self, P and Delta are required.
type Config struct {
	// Self is this node's position in the canonical open-cube labeling.
	Self ocube.Pos
	// P is the cube order pmax; the system has N = 2^P positions.
	P int
	// Policy chooses transit/proxy behavior; nil means OpenCubePolicy.
	Policy Policy
	// FT enables the failure handling of Section 5 (timers, enquiry,
	// search_father, anomaly detection). With FT off, a failure-free run
	// arms no timers at all.
	FT bool
	// Delta is δ, the maximum message transmission delay the communication
	// system guarantees between correct nodes (required when FT is on).
	// Over a reliable session the acknowledgment of an unlent token is the
	// session's own ack, which may wait out the session's ack delay
	// (SessionConfig.RTO/4) before it leaves: the 2δ + Slack() watchdog
	// that waits for it has room when that delay fits in Slack(), which
	// is what transport.SessionConfig.Fit arranges.
	Delta time.Duration
	// CSEstimate is e, the estimated critical-section duration, used in
	// the root's token-return timeouts.
	CSEstimate time.Duration
	// SuspicionSlack is added to every failure timeout. The paper requires
	// suspicion delays to be "at least" the stated bounds; the slack
	// absorbs queueing behind other requests so that suspicion implies a
	// genuine failure with high probability.
	SuspicionSlack time.Duration
	// DisableTieBreak removes the identity ordering that makes concurrent
	// searches converge on a single root (the junior→senior adoption rule
	// generalizing the paper's equal-phase tie-break). Ablation A1:
	// unsafe — concurrent searchers can form father cycles or regenerate
	// two tokens, the paper's "inconsistency" example.
	DisableTieBreak bool
	// DisableEarlyAdopt removes the d_i < d_j early-adoption optimization
	// for concurrent searches (ablation A2).
	DisableEarlyAdopt bool
	// DisableConfirmSweep makes an exhausted search regenerate the token
	// immediately, as the paper specifies, instead of requiring two
	// consecutive failed full sweeps (ablation A5). Cheaper per root
	// failure but racy: a token moving behind the single sweep can be
	// duplicated.
	DisableConfirmSweep bool
	// EpochFence makes a node refuse to adopt or act on a token whose
	// Epoch is below its high-water mark: the fenced token is a proven
	// survivor of a regeneration this node already knows of, so acting on
	// it is what turns a double token into a double critical section.
	// This closes the §4 ack-watchdog window that message loss opens (the
	// E8 lossy scenario's violations) at the price of deviating from
	// pure observability: a fenced token is dropped, not forwarded, and
	// its loss is left to the §4/§5 watchdogs to repair — over a bare
	// channel the sender's ack watchdog re-mints an unlent survivor at a
	// new epoch; over a session, whose ack has released the sender, the
	// survivor is simply gone and the request it served is repaired by
	// its asker's suspicion (DESIGN.md §4). Off by default so every
	// recorded trace keeps its exact epoch-transparent behavior.
	EpochFence bool
	// Observe, when set, receives a TokenEvent for every protocol event
	// this node takes part in (requests, token movement, grants,
	// regenerations, stale sightings, search_father spans, dropped
	// messages) — everything the node reports, as opposed to the Effects
	// its driver executes, and the feed of the internal/obs flight
	// recorder. Purely observational and nil-checked at every emission
	// site: a nil Observe costs one predictable branch and changes no
	// behavior, allocation, or message.
	Observe func(TokenEvent)
}

func (c Config) validate() error {
	if c.P < 0 || c.P > ocube.MaxP {
		return fmt.Errorf("core: cube order P=%d out of range", c.P)
	}
	if !c.Self.Valid(1 << c.P) {
		return fmt.Errorf("core: self %v out of range for P=%d", c.Self, c.P)
	}
	if c.FT && c.Delta <= 0 {
		return errors.New("core: FT requires a positive Delta")
	}
	return nil
}

// seqStride partitions the sequence space: a request keeps one block of
// seqStride numbers, the base assigned when the source first issues it and
// the low bits incremented each time failure recovery re-issues it. Two
// sequences denote the same logical request iff they share a block, and
// within and across blocks later numbers supersede earlier ones, which is
// what the duplicate-discard comparison relies on.
const seqStride = 1 << 20

// sameRequest reports whether two sequence numbers identify the same
// logical request (possibly re-issued by failure recovery).
func sameRequest(a, b uint64) bool { return a/seqStride == b/seqStride }

// markGranted records that source's request seq was served.
func (n *Node) markGranted(source ocube.Pos, seq uint64) {
	e := n.track.ensure(source)
	e.hasGrant = true
	e.grantSeq = seq
}

// Node is the per-node protocol state machine. All methods must be called
// from a single goroutine; they return the effects the driver must
// execute, in order.
type Node struct {
	// h owns what the node shares with its siblings: the validated
	// Config and the Emitter (host.go). inst is the instance the
	// node was minted for, stamped on every TokenEvent.
	h    *Host
	inst uint64

	// Section 3.1 local state.
	father    ocube.Pos
	tokenHere bool
	asking    bool
	inCS      bool
	mandator  ocube.Pos // None when no mandate is pending
	lender    ocube.Pos // meaningful only while in the critical section
	q         waitQueue // the paper's per-node waiting queue, a FIFO ring (pool.go)
	wantCS    bool      // a local enter_cs is queued, pending, or executing

	// epoch is the highest token generation this node has observed (see
	// Message.Epoch). Regeneration increments it; receiving a token with a
	// lower epoch proves the regeneration raced a live token and is
	// reported as a stale sighting (TokenEvStale). tokenEpoch is the
	// generation of the token currently (or last) held — outgoing tokens
	// are stamped with it, so a surviving stale token keeps its old stamp
	// instead of being laundered by a better-informed forwarder. Like seq, epoch survives recovery
	// (stable storage), so the node that regenerated keeps recognizing
	// survivors.
	epoch      uint32
	tokenEpoch uint32

	// fenceCtr is the grant counter of the held token: it travels with the
	// token (Message.Fence), increments on every grant, and resets when a
	// regeneration opens a new epoch, so (tokenEpoch<<32 | fenceCtr) — the
	// client-visible fencing token — is strictly increasing across the
	// grants of one token lineage and regenerated tokens always outrank
	// the copies they replace.
	fenceCtr uint32

	// Request bookkeeping (Section 5 extensions). track holds the
	// per-source duplicate-discard state, sorted by source (pool.go).
	seq       uint64    // own request sequence (survives recovery: stable storage)
	curSource ocube.Pos // source of the request currently mandated
	curSeq    uint64    // sequence of the request currently mandated, or being served in CS
	track     trackTable

	// Root loan bookkeeping for the return watchdog (TimerTokenReturn):
	// loanSource is None when no loan is outstanding.
	loanSource ocube.Pos
	loanSeq    uint64
	loanPhase  loanPhase

	// Unlent-transfer guardianship: xferTo is not None while an outright
	// token transfer or loan return awaits its acknowledgment (FT only).
	xferTo     ocube.Pos
	xferSource ocube.Pos // source marked granted at send, for rollback
	xferSeq    uint64

	// Failure machinery (failure.go). repairGen counts the repair
	// attempts (search_father runs, including confirmation-sweep
	// restarts) this node has started; the live search's probes, replies
	// and re-issued request carry it (Message.Gen), fencing off traffic
	// from abandoned attempts. Monotonic for the node's lifetime — like
	// seq, it is never reset by Recover, so pre-crash stragglers cannot
	// alias a post-crash repair.
	search    searchState
	repairGen uint32
	gens      [numTimerKinds + 1]uint64
}

// NewNode constructs a node in the pristine open-cube configuration: the
// father relation is the initial one, and position 0 holds the token. It
// is a host of one — the node and the Host behind it share a single
// allocation, sized to stay in the 768-byte class a Node took when it
// held all of this itself — for drivers that run one instance per
// position.
func NewNode(cfg Config) (*Node, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	solo := new(struct {
		host Host
		node Node
	})
	solo.host.init(cfg)
	solo.node.init(&solo.host, NoInstance)
	return &solo.node, nil
}

// init puts the node in the pristine configuration of position
// h.cfg.Self. The queue's ring and the track table stay unallocated
// until first use: a large simulated network builds 2^P nodes per run and
// most never proxy a request.
func (n *Node) init(h *Host, inst uint64) {
	*n = Node{
		h:          h,
		inst:       inst,
		father:     ocube.InitialFather(h.cfg.Self),
		tokenHere:  h.cfg.Self == 0,
		mandator:   ocube.None,
		lender:     ocube.None,
		curSource:  ocube.None,
		loanSource: ocube.None,
		xferTo:     ocube.None,
	}
}

// --- introspection (used by drivers, invariant checkers and tests) ---

// Self returns the node's position.
func (n *Node) Self() ocube.Pos { return n.h.cfg.Self }

// Instance returns the instance the node was minted for (Host.NewNode);
// NoInstance for a NewNode host of one.
func (n *Node) Instance() uint64 { return n.inst }

// Host returns the host the node was minted by, whose counts cover every
// node it minted (one, for a NewNode host of one).
func (n *Node) Host() *Host { return n.h }

// Father returns the current father pointer (None for a root).
func (n *Node) Father() ocube.Pos { return n.father }

// TokenHere reports whether the node currently holds the token.
func (n *Node) TokenHere() bool { return n.tokenHere }

// Asking reports the paper's asking flag: the node is waiting for the
// token or executing the critical section (or awaiting a loan's return).
func (n *Node) Asking() bool { return n.asking }

// InCS reports whether the node is executing its critical section.
func (n *Node) InCS() bool { return n.inCS }

// Mandator returns the pending mandate (None if none).
func (n *Node) Mandator() ocube.Pos { return n.mandator }

// QueueLen returns the number of deferred work items.
func (n *Node) QueueLen() int { return n.q.n }

// Searching reports whether a search_father procedure is in progress.
func (n *Node) Searching() bool { return n.search.active }

// Busy reports whether the node has protocol activity outstanding:
// asking for (or executing) the critical section, serving a deferred
// queue, or searching for a father. Drivers use it for quiescence
// detection; pending timers alone do not make a node busy.
func (n *Node) Busy() bool {
	return n.asking || n.inCS || n.q.n > 0 || n.search.active
}

// Power returns the node's current power (Proposition 2.1), or the
// in-search evaluation phase-1 while searching (Section 5).
func (n *Node) Power() int {
	if n.search.active {
		return n.search.phase - 1
	}
	return n.view().Power()
}

// Policy returns the node's scheme policy.
func (n *Node) Policy() Policy { return n.h.cfg.Policy }

// Epoch returns the highest token generation the node has observed.
func (n *Node) Epoch() uint32 { return n.epoch }

// Stable is a node's Section 5 stable storage: the values it carries
// across a crash so its reincarnation stays coherent with the living
// cluster — a request sequence that keeps re-issued requests monotonic,
// the token-epoch high-water mark that fences regenerated tokens, and the
// repair generation that fences superseded repair rounds. Everything
// else a node knows dies with it (Recover).
type Stable struct {
	Seq       uint64 `json:"seq"`
	Epoch     uint32 `json:"epoch"`
	RepairGen uint32 `json:"repair_gen"`
}

// Stable returns the node's stable storage.
func (n *Node) Stable() Stable { return Stable{Seq: n.seq, Epoch: n.epoch, RepairGen: n.repairGen} }

// RestoreStable seeds a freshly constructed node with the stable storage
// of its previous incarnation; a live restart builds a new Node, restores
// through here, then runs Recover to rejoin. It refuses a node that
// already has protocol activity.
func (n *Node) RestoreStable(s Stable) error {
	if n.Busy() || n.seq != 0 {
		return errors.New("core: RestoreStable on a non-pristine node")
	}
	n.restore(s)
	return nil
}

func (n *Node) restore(s Stable) { n.seq, n.epoch, n.repairGen = s.Seq, s.Epoch, s.RepairGen }

func (n *Node) view() View {
	return View{Self: n.h.cfg.Self, Father: n.father, TokenHere: n.tokenHere, Pmax: n.h.cfg.P}
}

// --- effect plumbing ---
//
// Every public entry point begins with n.h.em.Begin(), expiring the
// effects of the previous call into any node of the host, and ends with
// n.h.em.Take(); the emit helpers below append through the host's Emitter.

func (n *Node) send(m Message) {
	m.From = n.h.cfg.Self
	if n.h.cfg.Observe != nil {
		n.observeSend(m)
	}
	n.h.em.Send(m)
}

func (n *Node) emitGrant(lender ocube.Pos) {
	n.fenceCtr++
	fence := uint64(n.tokenEpoch)<<32 | uint64(n.fenceCtr)
	if n.h.cfg.Observe != nil {
		n.observe(TokenEvent{Kind: TokenEvGrant, Peer: lender, Epoch: n.tokenEpoch, Fence: fence})
	}
	n.h.em.Grant(fence)
}

// observe reports ev, stamped with this node's position and instance,
// through Config.Observe: the one channel for what a node reports rather
// than asks its driver to do.
func (n *Node) observe(ev TokenEvent) {
	if n.h.cfg.Observe == nil {
		return
	}
	ev.Self, ev.Instance = n.h.cfg.Self, n.inst
	n.h.cfg.Observe(ev)
}

// dropped reports a message discarded by a defensive guard.
func (n *Node) dropped(m Message, reason string) {
	n.observe(TokenEvent{Kind: TokenEvDropped, Peer: m.From, Epoch: m.Epoch, Seq: m.Seq, Reason: reason})
}

// regenerated counts and reports a regeneration, whose epoch bumpEpoch
// has just minted.
func (n *Node) regenerated(reason string) {
	n.h.regens++
	n.observe(TokenEvent{Kind: TokenEvRegenerated, Peer: ocube.None, Epoch: n.epoch, Reason: reason})
}

// staleToken counts and reports the sighting of a token stamped below
// this node's epoch high-water mark.
func (n *Node) staleToken(m Message) {
	n.h.stale++
	n.observe(TokenEvent{Kind: TokenEvStale, Peer: m.From, Epoch: m.Epoch,
		Fence: composeFence(m.Epoch, m.Fence), Reason: "stale-epoch token discarded"})
}

// armTimer bumps the generation for kind and schedules a fire.
func (n *Node) armTimer(kind TimerKind, delay time.Duration) {
	n.gens[kind]++
	n.h.em.StartTimer(kind, n.gens[kind], delay)
}

// cancelTimer invalidates any outstanding fire of kind.
func (n *Node) cancelTimer(kind TimerKind) { n.gens[kind]++ }

// TimerGen returns the live generation for kind. A scheduled fire
// carrying any other generation is dead — cancelled or superseded — and
// drivers may discard it without delivering it.
func (n *Node) TimerGen(kind TimerKind) uint64 { return n.gens[kind] }

// HandleTimer delivers a timer fire. Stale generations are ignored.
func (n *Node) HandleTimer(kind TimerKind, gen uint64) []Effect {
	n.h.em.Begin()
	if gen != n.gens[kind] {
		return nil
	}
	switch kind {
	case TimerSuspicion:
		if n.search.active {
			n.onSearchRound()
		} else {
			n.onSuspicion()
		}
	case TimerTokenReturn:
		n.onReturnOverdue()
	case TimerTransferAck:
		n.onTransferTimeout()
	}
	return n.h.em.Take()
}

// --- local events (Section 3.3: enter_cs / exit_cs) ---

// ErrBusy is returned by RequestCS while a previous request is pending or
// the node is in its critical section.
var ErrBusy = errors.New("core: critical-section request already pending")

// RequestCS registers the local wish to enter the critical section. The
// grant is signalled by a Grant effect (possibly within the returned
// slice, if the node already holds the idle token).
func (n *Node) RequestCS() ([]Effect, error) {
	n.h.em.Begin()
	if n.wantCS {
		return nil, ErrBusy
	}
	n.wantCS = true
	n.q.push(queued{local: true})
	n.drain()
	return n.h.em.Take(), nil
}

// ErrNotInCS is returned by ReleaseCS when the node is not in its critical
// section.
var ErrNotInCS = errors.New("core: not in critical section")

// ReleaseCS ends the critical section: the token is given back to the
// lender, or kept if this node is the lender (the root).
func (n *Node) ReleaseCS() ([]Effect, error) {
	n.h.em.Begin()
	if !n.inCS {
		return nil, ErrNotInCS
	}
	n.inCS = false
	n.wantCS = false
	if n.lender != n.h.cfg.Self {
		n.transfer(n.lender, n.h.cfg.Self, n.curSeq)
	}
	n.lender = ocube.None
	n.asking = false
	n.drain()
	return n.h.em.Take(), nil
}

// --- queue service ---

// drain processes deferred work FIFO while the node is not busy
// (the paper's wait(not asking) precondition; a search_father in progress
// also holds the queue because the father pointer is unresolved).
func (n *Node) drain() {
	for !n.asking && !n.search.active && n.q.n > 0 {
		item := n.q.pop()
		if item.local {
			n.processEnterCS()
		} else {
			n.processRequest(item.msg)
		}
	}
}

// processEnterCS is the body of the paper's enter_cs action, reached once
// the node is no longer busy.
func (n *Node) processEnterCS() {
	n.asking = true
	if n.tokenHere {
		// Already the root holding the idle token: enter directly. The
		// paper's pseudocode leaves lender untouched here; it must be self
		// so that exit_cs keeps the token (DESIGN.md note 1).
		n.seq += seqStride
		n.curSeq = n.seq
		n.lender = n.h.cfg.Self
		n.inCS = true
		n.emitGrant(n.h.cfg.Self)
		return
	}
	n.seq += seqStride
	n.mandator = n.h.cfg.Self
	n.curSource = n.h.cfg.Self
	n.curSeq = n.seq
	n.send(Message{Kind: KindRequest, To: n.father,
		Target: n.h.cfg.Self, Source: n.h.cfg.Self, Seq: n.seq})
	n.armSuspicion()
}

// processRequest is the body of the paper's "receipt of request(j)"
// action, reached once the node is no longer busy.
func (n *Node) processRequest(m Message) {
	if m.Target == n.h.cfg.Self {
		// Cannot happen in correct runs (a request never revisits its own
		// target); guard against pathological reconfigurations.
		n.dropped(m, "request targets self")
		return
	}
	tr := n.track.lookup(m.Source)
	if tr != nil && tr.hasSeen && m.Seq < tr.seenSeq {
		// A newer re-issue of this request arrived while this copy sat in
		// the queue; serving both would hand out the token twice.
		n.dropped(m, "stale sequence at dequeue")
		n.obsoleteSuperseded(m, tr.seenSeq)
		return
	}
	if tr != nil && tr.hasGrant && sameRequest(tr.grantSeq, m.Seq) {
		// We already lent the token for this logical request and the loan
		// completed; this copy is a failure-recovery duplicate whose
		// service would send the token to a node that no longer asks.
		// Tell the target so a zombie mandate stops re-issuing it.
		n.dropped(m, "request already granted")
		n.send(Message{Kind: KindObsolete, To: m.Target, Source: m.Source, Seq: m.Seq})
		return
	}
	switch n.h.cfg.Policy.Decide(n.view(), m.Target) {
	case BehaviorAnomaly:
		// Section 5: power(self) < dist(self, target) is impossible in an
		// open-cube; the target's father relation is stale (we recovered
		// since it adopted us). Tell it to search a new father.
		n.send(Message{Kind: KindAnomaly, To: m.Target})
	case BehaviorTransit:
		if n.tokenHere {
			// Give up the token outright: the requester becomes the root.
			n.transfer(m.Target, m.Source, m.Seq)
		} else {
			fwd := m
			fwd.To = n.father
			n.send(fwd)
		}
		// First half of a b-transformation.
		n.father = m.Target
	case BehaviorProxy:
		n.asking = true
		if n.tokenHere {
			n.lend(m.Target, m.Source, m.Seq)
		} else {
			n.mandator = m.Target
			n.curSource = m.Source
			n.curSeq = m.Seq
			n.send(Message{Kind: KindRequest, To: n.father,
				Target: n.h.cfg.Self, Source: m.Source, Seq: m.Seq, Regen: false})
			n.armSuspicion()
		}
	}
}

// --- message dispatch ---

// HandleMessage delivers one protocol message.
func (n *Node) HandleMessage(m Message) []Effect {
	n.h.em.Begin()
	switch m.Kind {
	case KindRequest:
		n.onRequest(m)
	case KindToken:
		n.onToken(m)
	case KindEnquiry:
		n.onEnquiry(m)
	case KindEnquiryReply:
		n.onEnquiryReply(m)
	case KindTest:
		n.onTest(m)
	case KindTestReply:
		n.onTestReply(m)
	case KindAnomaly:
		n.onAnomaly(m)
	case KindTokenAck:
		n.onTokenAck(m)
	case KindObsolete:
		n.onObsolete(m)
	default:
		n.dropped(m, "unknown kind")
	}
	return n.h.em.Take()
}

// onRequest queues or processes a request, discarding stale re-issues.
func (n *Node) onRequest(m Message) {
	if !m.Source.Valid(1<<n.h.cfg.P) || !m.Target.Valid(1<<n.h.cfg.P) {
		// Malformed network input (live transports decode arbitrary
		// bytes): the tracking table's key domain is the position range,
		// with None as its empty-slot sentinel, so out-of-range sources
		// must never reach it.
		n.dropped(m, "source or target out of range")
		return
	}
	if m.Source == n.h.cfg.Self && m.Target != n.h.cfg.Self {
		// Our own request came back as a proxy's re-issue — a
		// failure-recovery duplicate that looped. Taking the mandate
		// would make us a proxy in a CYCLE on our own request (the §7
		// mutual-proxy knot: two nodes each mandating the other's
		// request, re-issuing copies every informed node drops as
		// stale). The source is the one node that knows its request's
		// true state, so it adjudicates: the circulating copy dies, its
		// holder is released, and if the request is still live we
		// re-issue it ourselves under a sequence that supersedes every
		// copy in flight.
		n.dropped(m, "own request returned")
		n.send(Message{Kind: KindObsolete, To: m.Target, Source: m.Source, Seq: m.Seq})
		if n.wantCS && n.mandator == n.h.cfg.Self && sameRequest(m.Seq, n.curSeq) {
			if m.Seq > n.curSeq {
				n.curSeq = m.Seq
			}
			n.curSeq++
			n.seq = n.curSeq
			n.resyncReissue()
		}
		return
	}
	tr := n.track.ensure(m.Source)
	if tr.hasSeen && m.Seq < tr.seenSeq {
		n.dropped(m, "stale sequence")
		n.obsoleteSuperseded(m, tr.seenSeq)
		return
	}
	tr.hasSeen = true
	tr.seenSeq = m.Seq
	if n.mandator != ocube.None && n.curSource == m.Source &&
		sameRequest(n.curSeq, m.Seq) && m.Seq > n.curSeq {
		// The source (or a proxy closer to it) re-issued the very request
		// we already mandate, with a newer sequence: our own re-issues
		// are now stale copies that every informed node discards, so the
		// mandate could never be served under its old number — while the
		// newer copy would sit hostage in our held queue, a two-node
		// mutual wait (DESIGN.md §7). Re-sync the mandate to the newer
		// sequence and push a fresh re-issue towards our father instead
		// of queueing a second copy.
		n.curSeq = m.Seq
		n.resyncReissue()
		return
	}
	// A re-issue of a request already queued here supersedes the queued
	// copy in place, so recovery storms cannot bloat the queue.
	for i := range n.q.n {
		if e := n.q.at(i); !e.local && e.msg.Source == m.Source {
			e.msg = m
			n.drain()
			return
		}
	}
	n.q.push(queued{msg: m})
	n.drain()
}

// resyncReissue pushes a Regen re-issue of the current mandate — whose
// sequence the caller just advanced — towards the father and re-arms
// suspicion. It is a no-op while a search is active or the father is
// unknown: an active search re-issues on its own conclusion with the
// advanced counter, and a fatherless node's pending suspicion repairs
// first; in both cases only the counter moves now.
func (n *Node) resyncReissue() {
	if n.search.active || n.father == ocube.None {
		return
	}
	n.send(Message{Kind: KindRequest, To: n.father,
		Target: n.h.cfg.Self, Source: n.curSource, Seq: n.curSeq,
		Regen: true, Gen: n.repairGen})
	n.armSuspicion()
}

// obsoleteSuperseded tells the target of a just-dropped stale request to
// abandon its mandate when the staleness crosses a sequence block: the
// source has since issued a NEW logical request (blocks are assigned per
// request, see seqStride), which proves it no longer cares about the
// dropped one, so any proxy still re-issuing the old block holds a dead
// mandate. Without the notification such a zombie proxy re-issues
// forever against this very guard while the source's fresh request sits
// hostage in the zombie's held queue — the two-node circulation of
// DESIGN.md §7. Same-block staleness is NOT notified: a newer re-issue
// of the same logical request supersedes the copy but keeps the mandate
// alive.
func (n *Node) obsoleteSuperseded(m Message, seenSeq uint64) {
	if !sameRequest(m.Seq, seenSeq) && m.Target != m.Source {
		n.send(Message{Kind: KindObsolete, To: m.Target, Source: m.Source, Seq: m.Seq})
	}
}

// onObsolete abandons a mandate whose request was granted elsewhere (a
// duplicate of it was served): stop re-issuing and resume queue service.
// The source itself recovers through its own machinery if the grant
// later turns out to have failed.
//
// The notification is then propagated one hop down the mandate chain:
// the grant-holding node only knows the *immediate* target of the copy
// it dropped, but failure re-issues rebuild proxy chains, so the node
// that keeps resurrecting the duplicate may sit several mandates below.
// Without propagation that node's mandate is a zombie — it re-issues,
// an intermediate proxy forwards a re-targeted copy, the grant holder
// obsoletes the proxy, and the zombie never learns: the DESIGN.md §7
// non-quiescent storm. Each hop clears its mandate before the message
// travels, so a propagated obsolete visits any node at most once.
func (n *Node) onObsolete(m Message) {
	if n.awaitingReturn() && m.Source == n.loanSource && m.Seq == n.loanSeq {
		// The lent token reached a node that no longer asks — the very
		// request the loan served is dead, and the recipient dropped the
		// token before sending this (see onToken). Record the request as
		// granted so further circulating duplicates are swallowed instead
		// of re-earning loans, and regenerate immediately rather than
		// waiting out the enquiry cycle. The exact-sequence match keeps a
		// straggler from an earlier loan of the same block from
		// regenerating over a live successor loan.
		n.markGranted(n.loanSource, n.loanSeq)
		n.regenerateToken("loan answered a dead request, token dropped by its target")
		return
	}
	if n.mandator == ocube.None || n.curSource != m.Source || !sameRequest(n.curSeq, m.Seq) {
		return
	}
	if n.mandator == n.h.cfg.Self {
		// Our own claim cannot be obsolete from our perspective: we have
		// not been granted. Ignore; if the claim was truly served through
		// a duplicate, the token grant reaches us, and otherwise our
		// suspicion machinery re-issues with a fresh sequence.
		return
	}
	if n.search.active {
		n.endSearch()
	}
	n.cancelTimer(TimerSuspicion)
	if n.mandator != m.Source {
		// Our mandator proxies the same logical request (the source's own
		// mandate is cleared by its grant, never by an obsolete).
		n.send(Message{Kind: KindObsolete, To: n.mandator, Source: m.Source, Seq: m.Seq})
	}
	n.mandator = ocube.None
	n.curSource = ocube.None
	n.asking = false
	n.drain()
}

// onToken is the paper's "receipt of token(j) from k" action. Token
// receipt is never delayed by the asking flag.
func (n *Node) onToken(m Message) {
	// Epoch accounting first, before any guard can drop the message: a
	// token stamped below our known epoch is a survivor of a regeneration
	// we know of — report the sighting (observability only, unless the
	// fence is on). Otherwise adopt the newer knowledge.
	if m.Epoch < n.epoch {
		n.staleToken(m)
		if n.h.cfg.EpochFence {
			// Epoch-fenced adoption: refuse to act on the surviving old
			// token, and send no acknowledgment. Over a bare channel the
			// sender of an unlent survivor then keeps guardianship, its
			// watchdog fires and it re-mints the survivor at a new epoch.
			// A Receipted survivor dies here instead: the session has
			// released (or will release) its sender, and whoever still
			// waits for this token is repaired by its own suspicion. A
			// lent one is the lender's return watchdog's to replace.
			n.dropped(m, "stale epoch fenced")
			if m.Receipted && m.Source == n.h.cfg.Self && n.mandator == n.h.cfg.Self && sameRequest(m.Seq, n.curSeq) {
				// It served our claim, so its released sender holds a
				// grant record no watchdog rolls back, and would drop our
				// re-issues in this block as "request already granted":
				// the claim moves to a new block.
				n.seq += seqStride
				n.curSeq = n.seq
			}
			return
		}
	} else {
		n.epoch = m.Epoch
	}
	if m.Lender == ocube.None && n.h.cfg.FT && !m.Receipted {
		// Unlent tokens are guarded by their sender until acknowledged; a
		// Receipted one is acknowledged by the session that carried it.
		n.send(Message{Kind: KindTokenAck, To: m.From, Seq: m.Seq})
	}
	// A token reaching a node that waits neither for a grant nor for a
	// loan's return serves a stale request (a failure-recovery duplicate).
	// A LENT token has a guardian — the lender's return watchdog will detect
	// the loss and regenerate — so dropping it is safe. An UNLENT token is
	// an ownership transfer with no guardian: it is adopted below and the
	// node becomes the root (the sender has already pointed its father at
	// us), keeping the token unique and the system live.
	if n.mandator == ocube.None && !n.asking && m.Lender != ocube.None {
		n.dropped(m, "unexpected lent token")
		if m.Source == n.h.cfg.Self && m.Lender != n.h.cfg.Self {
			// The loan served a dead request of OURS (we are not asking —
			// the request's copies outlived a crash and recovery). Without
			// feedback the lender waits out its enquiry cycle, regenerates,
			// and lends to the next circulating duplicate of the same
			// request: one regeneration per copy, a mill that dominates
			// churn runs. Tell the lender the request is obsolete and that
			// its token died here, so it regenerates once and fences the
			// siblings with a grant record (onObsolete).
			n.send(Message{Kind: KindObsolete, To: m.Lender, Source: m.Source, Seq: m.Seq})
		}
		return
	}
	if n.search.active {
		// Either the original request was served after all, or — for an
		// idle node, whose mandator is None — a recovery search is in
		// flight and must die with the adoption: were it left running, its
		// conclusion would overwrite the root's nil father, silently
		// demoting the token holder to a low-power node that answers no
		// probes — the one witness whose ok blocks every other searcher's
		// regeneration — and its active flag would keep the queue held
		// (drain is a no-op while searching), parking the token on a mute
		// hoarder.
		n.endSearch()
	}
	returned := n.mandator == ocube.None && n.asking
	if returned && n.loanSource == ocube.None {
		// Asking with no mandate and no outstanding loan: we are inside
		// (or just past) our own critical section — the grant cleared the
		// mandate — and a SECOND token reached us, a duplicate from a
		// regeneration race. Absorb it: the acknowledgment above already
		// released an unlent duplicate's guardian, so dropping it here
		// retires the duplicate for good, while serving it as a loan's
		// return would clear `asking` mid-CS and drain the queue under the
		// running critical section.
		n.dropped(m, "duplicate token while holding one")
		return
	}
	n.tokenHere, n.tokenEpoch, n.fenceCtr = true, m.Epoch, m.Fence
	switch {
	case returned:
		// Record the grant only when the return provably answers the
		// outstanding loan: exit_cs stamps the source and served sequence
		// and always returns the token UNLENT. Under overlapping failures
		// other tokens land on a waiting lender — a duplicate from a raced
		// regeneration, or the loan itself bounced back still-lent by a
		// proxy whose mandate chain looped to us before reaching the
		// source. Recording the loan's source as granted on such evidence
		// would make this node swallow the source's live re-issues as
		// "already granted" forever while the source is still asking.
		if m.Lender == ocube.None && m.Source == n.loanSource && sameRequest(m.Seq, n.loanSeq) {
			n.markGranted(n.loanSource, n.loanSeq)
		}
		n.closeLoan()
		n.serveAsRoot()
	case m.Lender == ocube.None:
		// An ownership transfer, adopted for a claim or a mandate, or
		// stale at an idle node.
		n.serveAsRoot()
	case n.mandator == n.h.cfg.Self:
		n.father = m.From
		n.enterClaim(m.Lender)
	default:
		// Pass the loan on to the mandator; the token still returns to its
		// lender.
		n.cancelTimer(TimerSuspicion)
		n.father = m.From
		n.send(Message{Kind: KindToken, To: n.mandator, Lender: m.Lender,
			Source: n.curSource, Seq: n.curSeq, Epoch: n.tokenEpoch, Fence: n.fenceCtr})
		n.tokenHere = false
		n.mandator, n.curSource = ocube.None, ocube.None
		n.asking = false
		n.drain()
	}
}

// --- root custody ---

// serveAsRoot is the one step by which a node holding an unlent token
// becomes the root (DESIGN.md §5): an adopted ownership transfer, a
// loan's return and a regeneration all end here. The node enters its own
// pending claim, lends the token to its mandate, or resumes its queue.
func (n *Node) serveAsRoot() {
	n.father = ocube.None
	n.tokenHere = true
	switch {
	case n.mandator == n.h.cfg.Self:
		n.enterClaim(n.h.cfg.Self)
	case n.mandator != ocube.None:
		n.cancelTimer(TimerSuspicion)
		n.lend(n.mandator, n.curSource, n.curSeq)
		n.mandator, n.curSource = ocube.None, ocube.None
		// asking remains true until the token returns.
	default:
		n.asking = false
		n.drain()
	}
}

// enterClaim enters the critical section for the node's own mandated
// claim, on a token lent by lender — itself when it is the root, so that
// exit_cs keeps the token. asking remains true until ReleaseCS, and
// curSeq keeps naming the claim until then (onEnquiry, ReleaseCS).
func (n *Node) enterClaim(lender ocube.Pos) {
	n.cancelTimer(TimerSuspicion)
	n.lender = lender
	n.mandator, n.curSource = ocube.None, ocube.None
	n.inCS = true
	n.emitGrant(lender)
}

// lend sends the token to target for source's request seq; it must come
// back here, and the return watchdog guards it (beginLoan).
func (n *Node) lend(target, source ocube.Pos, seq uint64) {
	n.send(Message{Kind: KindToken, To: target, Lender: n.h.cfg.Self,
		Source: source, Seq: seq, Epoch: n.tokenEpoch, Fence: n.fenceCtr})
	n.tokenHere = false
	n.beginLoan(target, source, seq)
}

// transfer gives the token up unlent to `to` for source's request seq —
// the transit handover, or the return to a lender at exit_cs — and guards
// it until acknowledged (guardTransfer). Only a transfer straight to the
// source proves its grant; handing the token to a proxy does not (the
// onward lend can still fail), so marking then would wrongly discard the
// source's recovery re-issues.
func (n *Node) transfer(to, source ocube.Pos, seq uint64) {
	n.send(Message{Kind: KindToken, To: to, Lender: ocube.None,
		Source: source, Seq: seq, Epoch: n.tokenEpoch, Fence: n.fenceCtr})
	n.tokenHere = false
	granted := ocube.None
	if to == source {
		n.markGranted(source, seq)
		granted = source
	}
	n.guardTransfer(to, seq, granted)
}
