package core

import (
	"slices"
	"time"

	"repro/internal/ocube"
)

// This file implements Section 5 of the paper: failure suspicion, the
// root's enquiry and token regeneration, the search_father reconnection
// procedure, node recovery and anomaly repair. Everything here is inert
// unless Config.FT is set.

// searchState tracks one search_father procedure (Section 5). A phase d
// tests every node at open-cube distance d; unanswered nodes are
// discarded after a 2δ round and try-later answers are retested in the
// next round. Unlike the paper's sweep — which holds a phase open until
// every candidate is discarded — a round in which no candidate left the
// set advances to the next phase *carrying* the unresolved candidates
// (each re-probed at its own distance): under a failure storm every
// asker answers try-later, a frozen phase never drains, and two
// searchers frozen at different distances never probe each other, so
// the junior→senior election deadlocks and no one ever regenerates the
// lost token (the DESIGN.md §7 storm). Carrying keeps the probes moving
// outward while preserving the safety fence: the search is exhausted
// only when every phase has been injected AND the carried set has
// drained, so an unresolved candidate — the one that might yet become
// (or already be) the root — blocks regeneration exactly as a frozen
// phase did.
//
// The candidate sets are plain slices, like the node's queue and track
// table (pool.go), whose capacity survives across searches (clearSearch
// truncates, never frees): outstanding is kept sorted ascending so
// membership is a binary search, and deferred accumulates in
// answer-arrival order and is re-sorted before each probe round,
// preserving the position-ordered probe sequence that seeded replay
// depends on.
type searchState struct {
	active      bool
	phase       int         // highest distance whose candidates were injected
	startPhase  int         // phase the search began at
	sweeps      int         // completed failed full sweeps (from phase 1)
	outstanding []ocube.Pos // probed this round, answer pending (sorted)
	deferred    []ocube.Pos // answered try-later/busy; probe again next round
	absorbed    []ocube.Pos // wait on this node's own repair (sorted; see onTestReply)
	progress    bool        // a candidate left the set since the round opened
	tested      int         // total test messages sent this search
	recovery    bool        // search started by Recover (no request to re-issue)
}

// clearSearch resets the search state, keeping the candidate slices'
// capacity for the next search.
func (s *searchState) clear() {
	s.active, s.recovery, s.progress = false, false, false
	s.phase, s.startPhase, s.sweeps, s.tested = 0, 0, 0, 0
	s.outstanding = s.outstanding[:0]
	s.deferred = s.deferred[:0]
	s.absorbed = s.absorbed[:0]
}

// absorb records that k's pending request transitively waits on this
// node's own repair, keeping the set sorted for binary-search membership.
func (s *searchState) absorb(k ocube.Pos) {
	if i, ok := slices.BinarySearch(s.absorbed, k); !ok {
		s.absorbed = slices.Insert(s.absorbed, i, k)
	}
}

// searchPos returns the index of k in the sorted slice s, or -1.
func searchPos(s []ocube.Pos, k ocube.Pos) int {
	if i, ok := slices.BinarySearch(s, k); ok {
		return i
	}
	return -1
}

// Slack returns the slack every failure timeout carries: the configured
// SuspicionSlack, never less than δ/8 so that an answer arriving at
// exactly 2δ is never tied with the round deadline.
func (c Config) Slack() time.Duration { return max(c.SuspicionSlack, c.Delta/8) }

func (n *Node) slack() time.Duration { return n.h.cfg.Slack() }

// suspicionDelay is the paper's "at least 2·pmax·δ" plus slack.
func (n *Node) suspicionDelay() time.Duration {
	return 2*time.Duration(n.h.cfg.P)*n.h.cfg.Delta + n.slack()
}

// roundDelay is the 2δ window in which any probed correct node answers,
// plus slack to absorb scheduling ties.
func (n *Node) roundDelay() time.Duration {
	return 2*n.h.cfg.Delta + n.slack()
}

// armSuspicion starts the token-arrival watchdog for a pending request.
func (n *Node) armSuspicion() {
	if !n.h.cfg.FT {
		return
	}
	n.armTimer(TimerSuspicion, n.suspicionDelay())
}

// onSuspicion fires when an asking node has waited too long for the token:
// start search_father from phase power+1 (Section 5, "asking nodes with
// father ≠ nil").
func (n *Node) onSuspicion() {
	if n.mandator == ocube.None || n.search.active {
		return
	}
	n.startSearch(n.view().Power()+1, false)
}

// --- root loan enquiry ---

// beginLoan records an outgoing loan and arms the return watchdog:
// 2δ+e when the token goes straight to the source, (pmax+1)δ+e otherwise
// (Section 5, "Root").
func (n *Node) beginLoan(target, source ocube.Pos, seq uint64) {
	n.loanTarget, n.loanSource, n.loanSeq = target, source, seq
	n.returnGrace = false
	if !n.h.cfg.FT {
		return
	}
	var d time.Duration
	if target == source {
		d = 2*n.h.cfg.Delta + n.h.cfg.CSEstimate
	} else {
		d = time.Duration(n.h.cfg.P+1)*n.h.cfg.Delta + n.h.cfg.CSEstimate
	}
	n.armTimer(TimerTokenReturn, d+n.slack())
}

// awaitingReturn reports whether the node is a lender whose loan is
// outstanding.
func (n *Node) awaitingReturn() bool {
	return n.asking && !n.tokenHere && n.mandator == ocube.None && n.loanSource != ocube.None
}

// onReturnOverdue fires when the loan's return deadline passed: enquire
// with the source. If the source already claimed it returned the token
// and the grace window elapsed without an arrival, the claimed return
// does not exist (delays are bounded by δ): the token is lost — this is
// how a loan made against a recovery duplicate, whose token the
// non-asking recipient discarded, is finally detected.
func (n *Node) onReturnOverdue() {
	if !n.awaitingReturn() {
		return
	}
	if n.returnGrace {
		n.regenerateToken("confirmed-returned token never arrived")
		return
	}
	n.send(Message{Kind: KindEnquiry, To: n.loanSource, Seq: n.loanSeq})
	n.armTimer(TimerEnquiry, n.roundDelay())
}

// onEnquiry answers a lender's enquiry about a specific loan, identified
// by sequence so that answers about a finished loan are never confused
// with the source's later requests.
func (n *Node) onEnquiry(m Message) {
	var status EnquiryStatus
	switch {
	case n.inCS && sameRequest(n.csSeq, m.Seq):
		status = StatusInCS
	case n.mandator == n.h.cfg.Self && sameRequest(n.curSeq, m.Seq):
		// Still waiting for (or searching a new father because of) that
		// very request — the mandate stays set during search_father — so
		// the token never arrived: it was lost on the path.
		status = StatusTokenLost
	default:
		status = StatusTokenReturned
	}
	n.send(Message{Kind: KindEnquiryReply, To: m.From, Seq: m.Seq, Status: status})
}

// onEnquiryReply processes the source's answer (Section 5: live and safe).
func (n *Node) onEnquiryReply(m Message) {
	if !n.awaitingReturn() || m.Seq != n.loanSeq {
		return
	}
	switch m.Status {
	case StatusInCS:
		// Keep waiting a full critical section plus round trip.
		n.returnGrace = false
		n.cancelTimer(TimerEnquiry)
		n.armTimer(TimerTokenReturn, 2*n.h.cfg.Delta+n.h.cfg.CSEstimate+n.slack())
	case StatusTokenReturned:
		// If a return is genuinely in flight it arrives within δ; beyond
		// that grace the next TimerTokenReturn fire concludes loss.
		n.returnGrace = true
		n.cancelTimer(TimerEnquiry)
		n.armTimer(TimerTokenReturn, n.h.cfg.Delta+n.slack())
	case StatusTokenLost:
		n.regenerateToken("source reported token lost")
	}
}

// onEnquiryTimeout fires when the source did not answer within 2δ: it is
// down. The token cannot be in flight to us anymore (see DESIGN.md note
// 4), so regeneration is safe.
func (n *Node) onEnquiryTimeout() {
	if !n.awaitingReturn() {
		return
	}
	n.regenerateToken("enquiry unanswered, source presumed down")
}

// regenerateToken replaces the lost token of an outstanding loan: close
// the loan, then regenerate.
func (n *Node) regenerateToken(reason string) {
	n.closeLoan()
	n.regenerate(reason)
}

// closeLoan retires the outstanding loan's record and its watchdogs.
func (n *Node) closeLoan() {
	n.cancelTimer(TimerTokenReturn)
	n.cancelTimer(TimerEnquiry)
	n.loanSource, n.loanTarget = ocube.None, ocube.None
	n.returnGrace = false
}

// regenerate mints a fresh token at a new epoch and serves it as the root.
func (n *Node) regenerate(reason string) {
	n.bumpEpoch()
	n.regenerated(reason)
	n.serveAsRoot()
}

// --- unlent transfer guardianship (extension, see KindTokenAck) ---

// guardTransfer records an outgoing unlent token and arms the
// acknowledgment watchdog. Inert without fault tolerance.
func (n *Node) guardTransfer(to ocube.Pos, seq uint64, source ocube.Pos) {
	if !n.h.cfg.FT {
		return
	}
	n.xferTo, n.xferSeq, n.xferSource, n.xferPending = to, seq, source, true
	n.armTimer(TimerTransferAck, n.roundDelay())
}

// onTokenAck releases guardianship of an acknowledged transfer.
func (n *Node) onTokenAck(m Message) {
	if n.xferPending && m.From == n.xferTo && m.Seq == n.xferSeq {
		n.xferPending = false
		n.cancelTimer(TimerTransferAck)
	}
}

// onTransferTimeout fires when an unlent token was never acknowledged:
// under fail-stop nodes, reliable channels and bounded delay, the
// recipient was dead at delivery and the token is gone. The sender — its
// guardian — reclaims the root role and regenerates it.
func (n *Node) onTransferTimeout() {
	if !n.xferPending {
		return
	}
	n.xferPending = false
	if n.xferSource != ocube.None {
		if tr := n.track.lookup(n.xferSource); tr != nil && tr.hasGrant && tr.grantSeq == n.xferSeq {
			// The transfer was never acknowledged, so the source cannot
			// be assumed granted: let its re-issued request through. The
			// rollback must happen on EVERY resolution of the watchdog —
			// including the keep-state branch below — or a source whose
			// token died with a transient crash is starved forever by
			// this node's stale grant record ("request already granted")
			// while it re-issues a perfectly live request. If the source
			// actually was served (only the acknowledgment was lost), the
			// rollback merely re-opens service for a request nobody
			// re-issues; stray duplicates die in the obsolete machinery.
			tr.hasGrant = false
		}
	}
	if n.inCS || n.tokenHere {
		// The node meanwhile holds a token again. Under the paper's model
		// this state is unreachable (a live recipient acknowledges within
		// the watchdog window, and a dead one means the only token is
		// gone), so reaching it proves either a channel dropped the
		// acknowledgment — not the token — or this node legitimately
		// acquired a successor token while the transfer died with its
		// recipient. Reclaiming the root here would clobber the father
		// pointer and the in-progress critical section's lender
		// bookkeeping, leaving the node rootless and tokenless after its
		// release; keep the current state instead and leave a genuinely
		// dead transfer to the suspicion machinery of the nodes queued
		// behind it.
		return
	}
	if n.search.active {
		n.endSearch()
	}
	n.regenerate("unlent token transfer unacknowledged")
}

// bumpEpoch advances the token generation for a regeneration: the
// replacement carries the new epoch, so any survivor of the replaced
// generation is recognizable wherever the new epoch has been seen.
//
// Minting is node-unique: the new epoch is the smallest value above the
// local high-water mark in this node's residue class modulo N. Two
// nodes regenerating concurrently from the same observed epoch (a
// double crash, or a partitioned node regenerating while the healthy
// side already has) therefore can never mint the SAME epoch — and since
// each regeneration restarts the fence counter, equal epochs would mean
// two tokens handing out colliding fences, which no fence-checking
// resource can order. (The live chaos rig caught exactly that under a
// double kill.) Epochs stay strictly increasing; they just stride.
func (n *Node) bumpEpoch() {
	nn := uint32(1) << n.h.cfg.P
	self := uint32(n.h.cfg.Self)
	e := n.epoch + 1
	if r := e % nn; r != self {
		e += (nn + self - r) % nn
	}
	n.epoch = e
	n.tokenEpoch = n.epoch
	// A regeneration opens a fresh lineage: its grant counter restarts,
	// and because the fence orders by epoch first, every grant of the new
	// token outranks every grant of the copies it replaces.
	n.fenceCtr = 0
}

// --- search_father (Section 5) ---

// startSearch begins the iterative father research at the given phase.
// Every search advances the node's repair generation, fencing off the
// replies of any earlier, abandoned search (Message.Gen).
func (n *Node) startSearch(phase int, recovery bool) {
	if phase < 1 {
		phase = 1
	}
	s := &n.search
	s.clear()
	n.repairGen++
	s.active, s.phase, s.startPhase, s.recovery = true, phase, phase, recovery
	n.searchStarted(phase)
	if phase > n.h.cfg.P {
		n.searchExhausted()
		return
	}
	n.probeRound(true)
}

// probeRound opens a test round: the carried deferred candidates, plus —
// when inject is set — every node at distance search.phase, are probed in
// ascending position order. Each candidate is tested at its own distance
// (a carried candidate keeps the requirement of the phase it entered at),
// stamped with the search's repair generation. Probing in position order
// matters for replay: retesting in answer-arrival order would attach the
// simulator's seeded delay draws to candidates in a run-dependent order.
func (n *Node) probeRound(inject bool) {
	s := &n.search
	slices.Sort(s.deferred)
	s.outstanding = append(s.outstanding[:0], s.deferred...)
	s.deferred = s.deferred[:0]
	if inject {
		s.outstanding = ocube.AppendAtDist(s.outstanding, n.h.cfg.Self, s.phase)
		slices.Sort(s.outstanding)
	}
	s.progress = false
	for _, k := range s.outstanding {
		s.tested++
		n.send(Message{Kind: KindTest, To: k, Phase: int32(ocube.Dist(n.h.cfg.Self, k)), Gen: n.repairGen})
	}
	n.armTimer(TimerSearchRound, n.roundDelay())
}

// onSearchRound closes a test round: silent candidates are discarded.
// If a candidate left the set this round (silence, adoption bookkeeping
// or a queued-target discard), the deferred remainder is retested at the
// same phase — the transient case, where a busy candidate resolves
// within a round or two and the nearest-father preference is worth
// waiting for. A round with no progress advances the search outward
// instead, carrying the deferred set along (see searchState); once every
// phase has been injected, tail rounds keep retesting the carried set
// until it drains, and only then is the search exhausted.
func (n *Node) onSearchRound() {
	if !n.search.active {
		return
	}
	s := &n.search
	if len(s.outstanding) > 0 {
		s.progress = true // no answer within 2δ: discarded
		s.outstanding = s.outstanding[:0]
	}
	if len(s.deferred) > 0 && s.progress {
		n.probeRound(false)
		return
	}
	if s.phase <= n.h.cfg.P {
		s.phase++
	}
	if s.phase > n.h.cfg.P {
		if len(s.deferred) == 0 {
			n.searchExhausted()
			return
		}
		n.probeRound(false)
		return
	}
	n.probeRound(true)
}

// onTest answers a search probe (Section 5, three cases, plus the
// concurrent-suspicion rules). The reply echoes the probe's phase and
// repair generation, so the searcher can fence off answers to probes
// from an earlier search of its own.
func (n *Node) onTest(m Message) {
	d := int(m.Phase)
	if n.search.active {
		// Concurrent searches (Section 5, "concurrent suspicions",
		// with the junior→senior amendment — see Message.FromSearcher).
		switch {
		case n.search.phase >= d:
			// Our in-search power is phase-1 ≥ d-1; flag the answer so
			// that only junior searchers adopt it. This subsumes the
			// paper's equal-phase identity tie-break.
			n.send(Message{Kind: KindTestReply, To: m.From, Phase: m.Phase, Gen: m.Gen,
				Reply: ReplyOK, FromSearcher: true})
		case m.From < n.h.cfg.Self && !n.h.cfg.DisableEarlyAdopt:
			// A senior prober is ahead of us. The paper's optimization
			// lets us conclude father := prober immediately; restricted
			// to senior probers to keep adoption acyclic.
			n.concludeSearch(m.From)
		default:
			// A junior searcher probed a live senior search: keep it
			// waiting so it cannot exhaust its sweep past us and
			// regenerate a token behind our back. It adopts us once our
			// phase reaches its level, or gets a definitive answer when
			// our search ends. The answer is flagged: a deferral that
			// guards a LIVE SEARCH must never be absorbed by the
			// junior's wait-chain closure — we may be about to exhaust
			// and regenerate, and a sweep that discards us can exhaust
			// concurrently, duplicating the token.
			n.send(Message{Kind: KindTestReply, To: m.From, Phase: m.Phase, Gen: m.Gen,
				Reply: ReplyTryLater, FromSearcher: true})
		}
		return
	}
	if n.inCS {
		// We hold the token inside the critical section. Our power may
		// be below d, but discarding us would discard the token itself:
		// answer busy so the searcher keeps retesting until the critical
		// section ends and the token's fate is observable.
		n.send(Message{Kind: KindTestReply, To: m.From, Phase: m.Phase, Gen: m.Gen,
			Reply: ReplyBusy})
		return
	}
	p := n.view().Power()
	if n.xferPending {
		// We are the guardian of an in-flight unlent token: until the
		// acknowledgment arrives we either still logically own it (and
		// will regenerate it as the root on loss) or the acknowledged
		// owner is about to exist. Claiming root power keeps the "some
		// node answers ok whenever a token exists" invariant unbroken
		// across ownership transfers.
		p = n.h.cfg.P
	}
	switch {
	case p >= d:
		n.send(Message{Kind: KindTestReply, To: m.From, Phase: m.Phase, Gen: m.Gen, Reply: ReplyOK})
	case n.asking:
		// Our power could still increase before the current request
		// terminates. Target declares the node our pending request was
		// sent to — the one our wait hangs on — so the searcher can tell
		// a wait that will resolve on its own from one that transitively
		// hangs on the searcher's own held queue (see onTestReply).
		n.send(Message{Kind: KindTestReply, To: m.From, Phase: m.Phase, Gen: m.Gen,
			Reply: ReplyTryLater, Target: n.father})
	default:
		// Cannot be the searcher's father: stay silent, the searcher
		// discards us after 2δ.
	}
}

// onTestReply processes an answer to one of our probes.
func (n *Node) onTestReply(m Message) {
	s := &n.search
	if !s.active || m.Gen != n.repairGen {
		return // stale answer from an earlier, abandoned search
	}
	idx := searchPos(s.outstanding, m.From)
	if idx < 0 {
		return // not probed this round (already answered or discarded)
	}
	switch m.Reply {
	case ReplyOK:
		if m.FromSearcher && m.From > n.h.cfg.Self && !n.h.cfg.DisableTieBreak {
			// A junior searcher's promise may be undercut when its own
			// search concludes: treat it as discarded. Only the junior
			// side of a searcher pair adopts, so concurrent searches
			// converge on the smallest searching identity. The junior
			// also enters the absorbed set: it yields to us in the
			// election, so the waits hanging on ITS held queue resolve
			// no earlier than our own repair — without this, a cycle of
			// mutually-hostage repairing nodes (each one's re-issued
			// request queued at the next) blocks every member's sweep on
			// the others' hostages and no one ever exhausts.
			s.outstanding = append(s.outstanding[:idx], s.outstanding[idx+1:]...)
			s.absorb(m.From)
			s.progress = true
			return
		}
		n.concludeSearch(m.From)
	case ReplyTryLater:
		s.outstanding = append(s.outstanding[:idx], s.outstanding[idx+1:]...)
		if m.FromSearcher {
			// The answerer is a SENIOR searcher holding us (a junior) in
			// its election wake. It may be about to exhaust its own sweep
			// and regenerate; discarding it on wait-chain evidence would
			// let both sweeps exhaust and duplicate the token. Defer
			// unconditionally — it resolves by answering ok (we adopt) or
			// by concluding (then it answers as an ordinary node).
			s.deferred = append(s.deferred, m.From)
			return
		}
		// The answerer is tokenless right now (it is asking and not in
		// its critical section — that would be a busy answer), and it
		// declared the node its pending request was sent to
		// (Message.Target). Its wait can only resolve on its own if that
		// chain of declarations stays clear of this node's held queue:
		// our queue does not drain while we search, so a candidate whose
		// wait hangs — directly or transitively — on a request we hold
		// would be deferred forever, deadlocking the sweep against our
		// own queue (under a failure storm, a cycle of such waits
		// between repairing nodes is the DESIGN.md §7 non-quiescence).
		// Such a candidate is discarded and recorded in the absorbed
		// set: waits on me, waits on a request queued at me, or waits on
		// an already-absorbed node — the closure grows one declared hop
		// per retest round, so hostage chains collapse instead of
		// blocking exhaustion. A discarded candidate is re-probed by the
		// confirmation sweep (which re-derives the closure from scratch)
		// before any regeneration, so one that meanwhile became a root
		// or searcher re-enters as a live witness.
		wo := m.Target
		if n.queuedTarget(m.From) || wo == n.h.cfg.Self ||
			(wo.Valid(1<<n.h.cfg.P) && (searchPos(s.absorbed, wo) >= 0 || n.queuedTarget(wo))) {
			s.absorb(m.From)
			s.progress = true
			return
		}
		s.deferred = append(s.deferred, m.From)
		// Keep the declared wait target under probe — but only when its
		// distance phase has already been injected, meaning it should be
		// in the candidate set and is not (say it was discarded as
		// silent while transiently down): the chain through it could
		// never collapse, because the closure only learns from answers
		// to live probes. A target the sweep has not reached yet needs
		// no help — its phase will inject it.
		if wo != n.h.cfg.Self && wo.Valid(1<<n.h.cfg.P) && ocube.Dist(n.h.cfg.Self, wo) <= s.phase &&
			searchPos(s.outstanding, wo) < 0 && !slices.Contains(s.deferred, wo) {
			s.deferred = append(s.deferred, wo)
		}
	case ReplyBusy:
		// The answerer is inside its critical section: it holds the
		// token. Always retest — never discard — so no sweep can exhaust
		// (and regenerate) past a live token.
		s.outstanding = append(s.outstanding[:idx], s.outstanding[idx+1:]...)
		s.deferred = append(s.deferred, m.From)
	}
}

// queuedTarget reports whether a request involving k — as the token
// recipient or as the ultimate source (k's request proxied by another
// node) — waits in our queue. Either way serving that entry awaits our
// own repair, so a wait declared on k cannot resolve before this search
// concludes.
func (n *Node) queuedTarget(k ocube.Pos) bool {
	for i := range n.q.n {
		if e := n.q.at(i); !e.local && (e.msg.Target == k || e.msg.Source == k) {
			return true
		}
	}
	return false
}

// concludeSearch adopts a new father and re-issues the pending request,
// if any.
func (n *Node) concludeSearch(father ocube.Pos) {
	tested := n.search.tested
	n.endSearch()
	n.father = father
	n.searchEnded(father, tested)
	n.reissueRequest()
}

// searchExhausted handles a search in which even phase pmax failed.
// Becoming the root and regenerating the token is only sound if every
// other node was probed and discarded; a search that started above phase
// 1 (its start phase derives from a father pointer that structural
// corruption — e.g. colliding concurrent adoptions, later repaired by
// anomalies — can overstate) skipped the closer nodes, among which the
// true root may hide. Such a search restarts once as a full sweep from
// phase 1; only a failed full sweep concludes root + regeneration
// (Section 5, strengthened — see DESIGN.md).
func (n *Node) searchExhausted() {
	sweeps := n.search.sweeps
	if n.search.startPhase == 1 {
		sweeps++
	}
	if n.h.cfg.DisableConfirmSweep {
		sweeps = 2 // paper-faithful: regenerate on the first exhaustion
	}
	if sweeps < 2 {
		// Not yet two consecutive failed FULL sweeps: restart from phase
		// 1. The confirmation sweep re-probes every node, so a root or
		// transfer guardian that emerged behind the previous pass — the
		// token is a moving target — answers ok and is adopted instead of
		// shadowed by a regeneration. The restart is a fresh repair
		// attempt: it advances the generation, so replies straggling in
		// from the failed sweep cannot touch it.
		tested, recovery := n.search.tested, n.search.recovery
		n.endSearch()
		n.repairGen++
		s := &n.search
		s.active, s.phase, s.startPhase = true, 1, 1
		s.sweeps, s.recovery, s.tested = sweeps, recovery, tested
		n.searchStarted(1)
		n.probeRound(true)
		return
	}
	tested := n.search.tested
	n.endSearch()
	n.searchEnded(ocube.None, tested)
	n.regenerate("search_father exhausted")
}

// searchStarted reports the start of a search_father attempt at phase.
func (n *Node) searchStarted(phase int) {
	n.observe(TokenEvent{Kind: TokenEvSearchStarted, Peer: ocube.None, Epoch: n.epoch, Seq: uint64(phase)})
}

// searchEnded reports a search_father conclusion: the adopted father, or
// None when the search made this node the root, after tested probes.
func (n *Node) searchEnded(father ocube.Pos, tested int) {
	n.observe(TokenEvent{Kind: TokenEvSearchEnded, Peer: father, Epoch: n.epoch, Seq: uint64(tested)})
}

// endSearch clears search state (keeping its pooled candidate slices)
// and its round timer.
func (n *Node) endSearch() {
	n.search.clear()
	n.cancelTimer(TimerSearchRound)
}

// reissueRequest regenerates the pending request towards the (new) father
// with a fresh sequence number, so stale copies of the old one are
// discarded wherever they surface. The re-issue is stamped with the
// repair generation that produced it, so duplicate copies in traces and
// queues can be told apart by which repair attempt spawned them (the
// discard guards themselves compare sequences, which stay monotonic per
// source — generations from different re-issuing proxies are not).
func (n *Node) reissueRequest() {
	if n.mandator == ocube.None {
		// Recovery search: nothing pending, resume queue service.
		n.asking = false
		n.drain()
		return
	}
	// Stay within the request's sequence block so the source's enquiry
	// answers still recognize the loan (see seqStride).
	n.curSeq++
	if n.curSource == n.h.cfg.Self {
		n.seq = n.curSeq
	}
	n.send(Message{Kind: KindRequest, To: n.father,
		Target: n.h.cfg.Self, Source: n.curSource, Seq: n.curSeq, Regen: true, Gen: n.repairGen})
	// The adopted father may itself be repairing (it possibly answered
	// from inside its own search), so give the re-issued request room for
	// a full search of its own before suspecting again.
	n.armTimer(TimerSuspicion, n.suspicionDelay()+time.Duration(n.h.cfg.P+1)*n.roundDelay())
}

// onAnomaly reacts to a father's structural rejection: behave exactly as
// if the father were down and search for a new one, starting at phase
// dist(self, father) = power+1 (Section 5).
func (n *Node) onAnomaly(m Message) {
	if m.From != n.father || n.mandator == ocube.None || n.search.active {
		return
	}
	n.startSearch(ocube.Dist(n.h.cfg.Self, n.father), false)
}

// Recover re-initializes a node after a fail-stop crash. Per Section 5 it
// retains only pmax and the distance function (pure label arithmetic
// here) from stable storage — plus its request sequence counter, our
// stable-storage addition that keeps re-issued requests monotonic (see
// DESIGN.md), and its token-epoch high-water mark, so stale-token
// sightings survive the crash of the very node that regenerated. The
// node reconnects by running search_father from phase 1, i.e. as if it
// were a leaf.
func (n *Node) Recover() []Effect {
	n.h.em.Begin()
	n.father = ocube.None
	n.tokenHere = false
	n.fenceCtr = 0 // the counter travels with the token; ours died with it
	n.asking = false
	n.inCS = false
	n.wantCS = false
	n.mandator = ocube.None
	n.lender = ocube.None
	n.curSource = ocube.None
	n.loanSource, n.loanTarget = ocube.None, ocube.None
	n.returnGrace = false
	n.xferPending = false
	n.q.reset()
	n.track.reset()
	for k := range n.gens {
		n.gens[k]++ // invalidate every pre-crash timer
	}
	n.startSearch(1, true)
	return n.h.em.Take()
}
