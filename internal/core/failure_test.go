package core

import (
	"testing"
	"time"

	"repro/internal/ocube"
)

// ftNode builds a fault-tolerant node for white-box tests.
func ftNode(t *testing.T, self ocube.Pos, p int) *Node {
	t.Helper()
	n, err := NewNode(Config{
		Self: self, P: p, FT: true,
		Delta: time.Millisecond, CSEstimate: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// effectsOf filters effects by example type.
func sends(effs []Effect) []Message {
	var out []Message
	for _, e := range effs {
		if s, ok := e.(*Send); ok {
			out = append(out, s.Msg)
		}
	}
	return out
}

func timers(effs []Effect) []StartTimer {
	var out []StartTimer
	for _, e := range effs {
		if s, ok := e.(*StartTimer); ok {
			out = append(out, *s)
		}
	}
	return out
}

func TestSuspicionStartsSearchAtPowerPlusOne(t *testing.T) {
	// Paper node 10 (pos 9, power 0) requests; suspicion must start
	// search_father at phase 1, testing the single distance-1 node.
	n := ftNode(t, 9, 4)
	effs, err := n.RequestCS()
	if err != nil {
		t.Fatal(err)
	}
	ts := timers(effs)
	if len(ts) != 1 || ts[0].Kind != TimerSuspicion {
		t.Fatalf("timers = %+v, want one suspicion", ts)
	}
	effs = n.HandleTimer(TimerSuspicion, ts[0].Gen)
	if !n.Searching() {
		t.Fatal("suspicion did not start a search")
	}
	probes := sends(effs)
	if len(probes) != 1 || probes[0].Kind != KindTest || probes[0].Phase != 1 || probes[0].To != 8 {
		t.Errorf("probes = %v, want one test(1) to position 8", probes)
	}
	if n.Power() != 0 {
		t.Errorf("in-search power = %d, want phase-1 = 0", n.Power())
	}
}

func TestSearchRoundDiscardsSilentAndAdvances(t *testing.T) {
	n := ftNode(t, 9, 4)
	effs, _ := n.RequestCS()
	gen := timers(effs)[0].Gen
	effs = n.HandleTimer(TimerSuspicion, gen)
	round := timers(effs)[0]
	// No answer within the round: phase 1 fails, phase 2 probes 2 nodes.
	effs = n.HandleTimer(TimerSuspicion, round.Gen)
	probes := sends(effs)
	if len(probes) != 2 || probes[0].Phase != 2 {
		t.Fatalf("phase-2 probes = %v", probes)
	}
}

func TestSearchOKAdoptsAndReissues(t *testing.T) {
	n := ftNode(t, 9, 4)
	effs, _ := n.RequestCS()
	effs = n.HandleTimer(TimerSuspicion, timers(effs)[0].Gen)
	_ = effs
	// Position 8 answers ok for phase 1.
	effs = n.HandleMessage(Message{Kind: KindTestReply, From: 8, To: 9, Phase: 1, Gen: 1, Reply: ReplyOK})
	if n.Searching() {
		t.Fatal("search did not conclude on ok")
	}
	if n.Father() != 8 {
		t.Errorf("father = %v, want 8", n.Father())
	}
	msgs := sends(effs)
	if len(msgs) != 1 || msgs[0].Kind != KindRequest || !msgs[0].Regen || msgs[0].To != 8 {
		t.Errorf("re-issue = %v, want regen request to 8", msgs)
	}
	if msgs[0].Seq <= seqStride || !sameRequest(msgs[0].Seq, seqStride) {
		t.Errorf("re-issue seq %d must stay in the original block", msgs[0].Seq)
	}
}

func TestSearchTryLaterCarriedAcrossPhases(t *testing.T) {
	// A round in which no candidate left the set advances the search
	// outward, carrying the deferred candidate along and re-probing it at
	// its own distance — a frozen phase would deadlock the storm election
	// (DESIGN.md §7).
	n := ftNode(t, 9, 4)
	effs, _ := n.RequestCS()
	effs = n.HandleTimer(TimerSuspicion, timers(effs)[0].Gen)
	round := timers(effs)[0]
	n.HandleMessage(Message{Kind: KindTestReply, From: 8, To: 9, Phase: 1, Gen: 1, Reply: ReplyTryLater, Target: 12})
	effs = n.HandleTimer(TimerSuspicion, round.Gen)
	probes := sends(effs)
	if len(probes) != 3 || probes[0].To != 8 || probes[0].Phase != 1 ||
		probes[1].Phase != 2 || probes[2].Phase != 2 {
		t.Errorf("carry round = %v, want test(1) to 8 plus the phase-2 probes", probes)
	}
	if !n.Searching() {
		t.Error("search ended prematurely")
	}
}

func TestSearchTryLaterRetestsSamePhaseOnProgress(t *testing.T) {
	// When the round DID make progress (here: a silent candidate was
	// discarded), the deferred remainder is retested at the same phase —
	// the transient case keeps the nearest-father preference.
	n := ftNode(t, 9, 4)
	effs, _ := n.RequestCS()
	effs = n.HandleTimer(TimerSuspicion, timers(effs)[0].Gen)
	round := timers(effs)[0]
	// Advance past phase 1 (its only candidate stays silent) into phase 2
	// with candidates {10, 11}: one defers, one stays silent.
	effs = n.HandleTimer(TimerSuspicion, round.Gen)
	round = timers(effs)[0]
	n.HandleMessage(Message{Kind: KindTestReply, From: 10, To: 9, Phase: 2, Gen: 1, Reply: ReplyTryLater, Target: 14})
	effs = n.HandleTimer(TimerSuspicion, round.Gen)
	probes := sends(effs)
	if len(probes) != 1 || probes[0].To != 10 || probes[0].Phase != 2 {
		t.Errorf("retest = %v, want test(2) to 10 only", probes)
	}
	if !n.Searching() {
		t.Error("search ended prematurely")
	}
}

func TestStaleTestReplyIgnored(t *testing.T) {
	n := ftNode(t, 9, 4)
	effs, _ := n.RequestCS()
	effs = n.HandleTimer(TimerSuspicion, timers(effs)[0].Gen)
	// An ok for a phase we are not in must be ignored.
	n.HandleMessage(Message{Kind: KindTestReply, From: 12, To: 9, Phase: 3, Gen: 1, Reply: ReplyOK})
	if !n.Searching() || n.Father() == 12 {
		t.Error("stale reply was adopted")
	}
	// An ok from a node never probed in this phase is also ignored.
	n.HandleMessage(Message{Kind: KindTestReply, From: 10, To: 9, Phase: 1, Gen: 1, Reply: ReplyOK})
	if n.Father() == 10 {
		t.Error("unsolicited reply was adopted")
	}
	_ = effs
}

func TestDoubleSweepBeforeRegeneration(t *testing.T) {
	// A node whose search started above phase 1 must re-sweep from phase
	// 1 before concluding root; with P=1 the whole flow is observable.
	n := ftNode(t, 1, 1)
	effs, _ := n.RequestCS()
	effs = n.HandleTimer(TimerSuspicion, timers(effs)[0].Gen)
	// Phase 1 = pmax: silent round → sweep 1 exhausted → sweep 2 (restart
	// from phase 1) → silent round → regenerate.
	effs = n.HandleTimer(TimerSuspicion, timers(effs)[0].Gen)
	if !n.Searching() {
		t.Fatal("first failed sweep must restart, not regenerate")
	}
	rep := watch(n)
	n.HandleTimer(TimerSuspicion, timers(effs)[0].Gen)
	got := rep.take()
	if len(got.of(TokenEvRegenerated)) != 1 {
		t.Fatalf("second failed sweep did not regenerate: %+v", got)
	}
	if ended := got.of(TokenEvSearchEnded); len(ended) != 1 || ended[0].Peer != ocube.None || ended[0].Seq != 2 {
		t.Errorf("search-ended reports = %+v, want one electing this node root after 2 probes", ended)
	}
	if !n.InCS() {
		t.Error("regenerating searcher with its own claim must enter the CS")
	}
}

func TestSingleSweepAblation(t *testing.T) {
	n, err := NewNode(Config{Self: 1, P: 1, FT: true, Delta: time.Millisecond,
		DisableConfirmSweep: true})
	if err != nil {
		t.Fatal(err)
	}
	effs, _ := n.RequestCS()
	effs = n.HandleTimer(TimerSuspicion, timers(effs)[0].Gen)
	rep := watch(n)
	n.HandleTimer(TimerSuspicion, timers(effs)[0].Gen)
	if len(rep.take().of(TokenEvRegenerated)) != 1 {
		t.Error("paper mode must regenerate on the first exhausted sweep")
	}
}

func TestConcurrentSearchJuniorAdoptsSeniorProber(t *testing.T) {
	// Junior (pos 11) searching at phase 1 receives test(2) from senior
	// pos 9: early-adopt.
	n := ftNode(t, 11, 4)
	effs, _ := n.RequestCS()
	n.HandleTimer(TimerSuspicion, timers(effs)[0].Gen)
	if !n.Searching() {
		t.Fatal("no search")
	}
	n.HandleMessage(Message{Kind: KindTest, From: 9, To: 11, Phase: 2})
	if n.Searching() || n.Father() != 9 {
		t.Errorf("junior did not adopt senior prober: father=%v", n.Father())
	}
}

func TestConcurrentSearchSeniorDefersJuniorProber(t *testing.T) {
	// Senior (pos 9) searching at phase 1 receives test(2) from junior
	// pos 11: answer try-later, keep searching.
	n := ftNode(t, 9, 4)
	effs, _ := n.RequestCS()
	n.HandleTimer(TimerSuspicion, timers(effs)[0].Gen)
	effs = n.HandleMessage(Message{Kind: KindTest, From: 11, To: 9, Phase: 2})
	msgs := sends(effs)
	if len(msgs) != 1 || msgs[0].Reply != ReplyTryLater {
		t.Errorf("senior reply = %v, want try-later", msgs)
	}
	if !n.Searching() {
		t.Error("senior abandoned its search")
	}
}

func TestConcurrentSearchFlaggedOKFromJuniorDiscarded(t *testing.T) {
	// Senior pos 9 probing phase 1... its candidate at distance 1 is pos
	// 8; a flagged ok from it (junior? pos 8 < 9, so it is senior —
	// build the junior case with pos 8 probing pos 9 instead).
	n := ftNode(t, 8, 4) // pos 8, junior is pos 9
	effs, _ := n.RequestCS()
	n.HandleTimer(TimerSuspicion, timers(effs)[0].Gen)
	if !n.Searching() {
		t.Fatal("no search")
	}
	// pos 8's phase 1 probes pos 9. A flagged ok from 9 (9 > 8) must be
	// treated as a discard, not an adoption.
	n.HandleMessage(Message{Kind: KindTestReply, From: 9, To: 8, Phase: 1, Gen: 1,
		Reply: ReplyOK, FromSearcher: true})
	if n.Father() == 9 {
		t.Error("senior adopted a junior searcher's promise")
	}
	if !n.Searching() {
		t.Error("senior stopped searching")
	}
	// An unflagged ok (a real father) is adopted normally.
	n.HandleMessage(Message{Kind: KindTestReply, From: 9, To: 8, Phase: 1, Gen: 1, Reply: ReplyOK})
	if n.Searching() {
		// The flagged discard removed 9 from the outstanding set, so this
		// unflagged duplicate is stale and ignored; the search continues.
		// That is the intended conservative behavior.
		t.Log("unflagged duplicate after discard correctly ignored")
	}
}

// timerOf returns the one arming of kind among effs.
func timerOf(t *testing.T, effs []Effect, kind TimerKind) StartTimer {
	t.Helper()
	for _, st := range timers(effs) {
		if st.Kind == kind {
			return st
		}
	}
	t.Fatalf("no %v armed in %v", kind, effs)
	return StartTimer{}
}

// TestGuardianHasOnePower is the zero-delay witness of the guardian's old
// split power. Root 0 hands the token to 2 outright and guards the
// transfer, unacknowledged, while searcher 3 (distance 2 from 0) probes
// at phase 2. The guardian's power is 1 — its father is 2 — and it
// answers probes and requests with that one power: it leaves the probe
// unanswered, and nothing moves until the searcher's round timer. When
// the guardian claimed root power for probes only, the two nodes cycled
// test → ok → request → anomaly with no timer in the cycle, and the loop
// below hit its cap. The recipient covers the transfer instead: it
// answers a probe while the token is in flight, ok where its power
// reaches the phase and try-later below it, because it is asking.
func TestGuardianHasOnePower(t *testing.T) {
	const maxMsgs = 64
	g, recipient, s := ftNode(t, 0, 2), ftNode(t, 2, 2), ftNode(t, 3, 2)
	effs, _ := recipient.RequestCS()
	req := sends(effs)
	if len(req) != 1 || req[0].To != 0 {
		t.Fatalf("recipient's request = %v, want one to 0", req)
	}
	req[0].From = 2
	xfer := sends(g.HandleMessage(req[0]))
	if len(xfer) != 1 || xfer[0].Kind != KindToken || xfer[0].Lender != ocube.None || g.Power() != 1 {
		t.Fatalf("guardian sent %v with power %d, want an outright transfer and power 1", xfer, g.Power())
	}

	// The searcher's phase 1 (its father, 2) goes unanswered; phase 2
	// probes 0 and 1.
	effs, _ = s.RequestCS()
	effs = s.HandleTimer(TimerSuspicion, timerOf(t, effs, TimerSuspicion).Gen)
	probe := sends(effs)
	if len(probe) != 1 || probe[0].To != 2 {
		t.Fatalf("phase-1 probes = %v, want one to 2", probe)
	}
	probe[0].From = 3
	if got := sends(recipient.HandleMessage(probe[0])); len(got) != 1 || got[0].Kind != KindTestReply {
		t.Fatalf("asking recipient answered %v, want a reply", got)
	}
	inflight := sends(s.HandleTimer(TimerSuspicion, timerOf(t, effs, TimerSuspicion).Gen))

	// Deliver between guardian and searcher at zero delay; everything
	// else (the token, probes to 1) stays in flight.
	nodes := map[ocube.Pos]*Node{0: g, 3: s}
	from := map[*Node]ocube.Pos{g: 0, s: 3}
	for i := range inflight {
		inflight[i].From = 3
	}
	delivered := 0
	for len(inflight) > 0 && delivered < maxMsgs {
		m := inflight[0]
		inflight = inflight[1:]
		n := nodes[m.To]
		if n == nil {
			continue
		}
		delivered++
		for _, out := range sends(n.HandleMessage(m)) {
			out.From = from[n]
			inflight = append(inflight, out)
		}
	}
	if delivered > 1 {
		t.Fatalf("%d messages passed between guardian and searcher at zero delay (cap %d), want the one probe: a cycle needs no timer", delivered, maxMsgs)
	}
	if !s.Searching() {
		t.Error("searcher stopped searching, want it waiting on its round timer")
	}

	// After the ack the guardian still has its one power.
	g.HandleMessage(Message{Kind: KindTokenAck, From: 2, To: 0, Seq: xfer[0].Seq})
	if got := sends(g.HandleMessage(Message{Kind: KindTest, From: 1, To: 0, Phase: 2})); len(got) != 0 {
		t.Errorf("after the ack the guardian answered %v, want silence from a low-power idle node", got)
	}
}

func TestTransferTimeoutRegeneratesAndRollsBackGrant(t *testing.T) {
	n := ftNode(t, 0, 2)
	effs := n.HandleMessage(Message{Kind: KindRequest, From: 2, To: 0,
		Target: 2, Source: 2, Seq: seqStride})
	var ackTimer *StartTimer
	for _, st := range timers(effs) {
		if st.Kind == TimerTransferAck {
			v := st
			ackTimer = &v
		}
	}
	if ackTimer == nil {
		t.Fatal("no transfer-ack timer armed")
	}
	rep := watch(n)
	n.HandleTimer(TimerTransferAck, ackTimer.Gen)
	if len(rep.take().of(TokenEvRegenerated)) != 1 || !n.TokenHere() || n.Father() != ocube.None {
		t.Fatal("unacked transfer must regenerate at the guardian as root")
	}
	// The source was never served: its re-issue must NOT be dropped as
	// already granted.
	effs = n.HandleMessage(Message{Kind: KindRequest, From: 2, To: 0,
		Target: 2, Source: 2, Seq: seqStride + 1, Regen: true})
	msgs := sends(effs)
	if len(msgs) != 1 || msgs[0].Kind != KindToken {
		t.Errorf("re-issue after failed transfer got %v, want a token", msgs)
	}
}

func TestObsoleteClearsZombieMandate(t *testing.T) {
	// Proxy pos 8 takes a mandate for source 9, then learns the request
	// was granted elsewhere.
	n := ftNode(t, 8, 4)
	n.HandleMessage(Message{Kind: KindRequest, From: 9, To: 8,
		Target: 9, Source: 9, Seq: seqStride})
	if n.Mandator() != 9 || !n.Asking() {
		t.Fatal("proxy mandate not set")
	}
	n.HandleMessage(Message{Kind: KindObsolete, From: 0, To: 8, Source: 9, Seq: seqStride})
	if n.Mandator() != ocube.None || n.Asking() {
		t.Error("obsolete did not clear the mandate")
	}
}

func TestObsoleteIgnoredForOwnClaim(t *testing.T) {
	n := ftNode(t, 9, 4)
	n.RequestCS()
	n.HandleMessage(Message{Kind: KindObsolete, From: 0, To: 9, Source: 9, Seq: seqStride})
	if n.Mandator() != 9 {
		t.Error("own claim was abandoned by an obsolete message")
	}
}

func TestObsoleteIgnoredForWrongRequest(t *testing.T) {
	n := ftNode(t, 8, 4)
	n.HandleMessage(Message{Kind: KindRequest, From: 9, To: 8,
		Target: 9, Source: 9, Seq: seqStride})
	n.HandleMessage(Message{Kind: KindObsolete, From: 0, To: 8, Source: 9, Seq: 5 * seqStride})
	if n.Mandator() != 9 {
		t.Error("mandate cleared by an obsolete for a different request")
	}
}

func TestAnomalyTriggersSearchAtFatherDistance(t *testing.T) {
	// Paper's example: node 13 (pos 12, father pos 8) gets an anomaly
	// from its father; the search starts at phase dist(12,8) = 3.
	n := ftNode(t, 12, 4)
	effs, _ := n.RequestCS()
	request := timerOf(t, effs, TimerSuspicion)
	effs = n.HandleMessage(Message{Kind: KindAnomaly, From: 8, To: 12})
	if !n.Searching() {
		t.Fatal("anomaly did not start a search")
	}
	probes := sends(effs)
	if len(probes) != 4 || probes[0].Phase != 3 {
		t.Errorf("probes = %v, want 4 tests at phase 3", probes)
	}
	// One watchdog per duty: the search's round supersedes the request's
	// suspicion, which must not outlive it as a dead fire.
	round := timerOf(t, effs, TimerSuspicion)
	if live := n.TimerGen(TimerSuspicion); live == request.Gen || live != round.Gen {
		t.Errorf("live suspicion gen = %d, want the round's %d past the request's %d", live, round.Gen, request.Gen)
	}
	if round.Delay != n.roundDelay() {
		t.Errorf("live suspicion delay = %v, want the round's %v", round.Delay, n.roundDelay())
	}
}

func TestAnomalyIgnoredFromNonFather(t *testing.T) {
	n := ftNode(t, 12, 4)
	n.RequestCS()
	n.HandleMessage(Message{Kind: KindAnomaly, From: 3, To: 12})
	if n.Searching() {
		t.Error("anomaly from a stranger started a search")
	}
}

func TestRecoverRejoinsAsLeaf(t *testing.T) {
	n := ftNode(t, 8, 4)
	effs := n.Recover()
	if !n.Searching() {
		t.Fatal("recovery did not start a search")
	}
	probes := sends(effs)
	if len(probes) != 1 || probes[0].Phase != 1 || probes[0].To != 9 {
		t.Errorf("recovery probes = %v, want test(1) to position 9", probes)
	}
	// Position 9 claims power ≥ 1: adopt, no request to re-issue.
	effs = n.HandleMessage(Message{Kind: KindTestReply, From: 9, To: 8, Phase: 1, Gen: 1, Reply: ReplyOK})
	if n.Searching() || n.Father() != 9 || n.Asking() {
		t.Errorf("recovery conclusion wrong: father=%v asking=%v", n.Father(), n.Asking())
	}
	for _, m := range sends(effs) {
		if m.Kind == KindRequest {
			t.Error("recovery search re-issued a request it never had")
		}
	}
}

// TestRecoverAloneRegeneratesAtOnce: a one-node cube (pmax = 0) has no
// node to probe, so its rejoin exhausts both sweeps inside Recover and
// regenerates there: no probe, no round to wait, the token here at a
// new epoch.
func TestRecoverAloneRegeneratesAtOnce(t *testing.T) {
	n := ftNode(t, 0, 0)
	was := n.Epoch()
	rep := watch(n)
	effs := n.Recover()
	if msgs, ts := sends(effs), timers(effs); len(msgs) > 0 || len(ts) > 0 {
		t.Errorf("recovery sent %v and armed %v; want neither", msgs, ts)
	}
	if n.Searching() || !n.TokenHere() || n.Epoch() <= was {
		t.Errorf("after recovery: searching=%v token=%v epoch=%d (was %d); want the token here at a new epoch",
			n.Searching(), n.TokenHere(), n.Epoch(), was)
	}
	got := rep.take()
	if len(got.of(TokenEvSearchStarted)) != 2 || len(got.of(TokenEvRegenerated)) != 1 {
		t.Errorf("reports = %+v, want two sweeps started and one regeneration", got)
	}
}

func TestRecoveredNodeDetectsAnomalyFromStaleSons(t *testing.T) {
	// Recovered node pos 8 adopted pos 9 (power 0). A request from its
	// stale son pos 12 (distance 3) must raise an anomaly.
	n := ftNode(t, 8, 4)
	n.Recover()
	n.HandleMessage(Message{Kind: KindTestReply, From: 9, To: 8, Phase: 1, Gen: 1, Reply: ReplyOK})
	effs := n.HandleMessage(Message{Kind: KindRequest, From: 12, To: 8,
		Target: 12, Source: 12, Seq: seqStride})
	msgs := sends(effs)
	if len(msgs) != 1 || msgs[0].Kind != KindAnomaly || msgs[0].To != 12 {
		t.Errorf("got %v, want anomaly to 12", msgs)
	}
}

func TestEnquiryAnswersMatchLoanState(t *testing.T) {
	// Source pos 9 in CS answers in-cs for the matching block, returned
	// for a stale block.
	n := ftNode(t, 9, 4)
	n.RequestCS()
	n.HandleMessage(Message{Kind: KindToken, From: 0, To: 9, Lender: 0, Seq: seqStride})
	if !n.InCS() {
		t.Fatal("token did not grant")
	}
	effs := n.HandleMessage(Message{Kind: KindEnquiry, From: 0, To: 9, Seq: seqStride + 3})
	msgs := sends(effs)
	if len(msgs) != 1 || msgs[0].Status != StatusInCS {
		t.Errorf("reply = %v, want in-cs (same block, re-issued)", msgs)
	}
	effs = n.HandleMessage(Message{Kind: KindEnquiry, From: 0, To: 9, Seq: 9 * seqStride})
	msgs = sends(effs)
	if len(msgs) != 1 || msgs[0].Status != StatusTokenReturned {
		t.Errorf("reply = %v, want token-returned for unknown loan", msgs)
	}
}

func TestEnquiryTokenLostWhileWaiting(t *testing.T) {
	n := ftNode(t, 9, 4)
	n.RequestCS()
	effs := n.HandleMessage(Message{Kind: KindEnquiry, From: 0, To: 9, Seq: seqStride})
	msgs := sends(effs)
	if len(msgs) != 1 || msgs[0].Status != StatusTokenLost {
		t.Errorf("reply = %v, want token-lost while still waiting", msgs)
	}
}

func TestReturnGraceRegeneratesAfterClaimedReturn(t *testing.T) {
	// Root 0 lends to source 1 (proxy behavior: dist 1 < power 2), then
	// the return goes missing: in-cs estimate passes, the source claims
	// "returned", the grace window passes — regenerate.
	n := ftNode(t, 0, 2)
	effs := n.HandleMessage(Message{Kind: KindRequest, From: 1, To: 0,
		Target: 1, Source: 1, Seq: seqStride})
	msgs := sends(effs)
	if len(msgs) != 1 || msgs[0].Lender != 0 {
		t.Fatalf("expected a loan, got %v", msgs)
	}
	var ret *StartTimer
	for _, st := range timers(effs) {
		if st.Kind == TimerTokenReturn {
			v := st
			ret = &v
		}
	}
	if ret == nil {
		t.Fatal("no return timer")
	}
	effs = n.HandleTimer(TimerTokenReturn, ret.Gen)
	msgs = sends(effs)
	if len(msgs) != 1 || msgs[0].Kind != KindEnquiry {
		t.Fatalf("overdue return sent %v, want enquiry", msgs)
	}
	effs = n.HandleMessage(Message{Kind: KindEnquiryReply, From: 1, To: 0,
		Seq: seqStride, Status: StatusTokenReturned})
	var grace *StartTimer
	for _, st := range timers(effs) {
		if st.Kind == TimerTokenReturn {
			v := st
			grace = &v
		}
	}
	if grace == nil {
		t.Fatal("no grace timer after token-returned")
	}
	rep := watch(n)
	n.HandleTimer(TimerTokenReturn, grace.Gen)
	if got := rep.take().of(TokenEvRegenerated); len(got) != 1 ||
		got[0].Reason != "confirmed-returned token never arrived" || !n.TokenHere() {
		t.Error("claimed-returned token that never arrived must be regenerated")
	}
}

func TestEnquiryReplyInCSExtendsWait(t *testing.T) {
	n := ftNode(t, 0, 2)
	effs := n.HandleMessage(Message{Kind: KindRequest, From: 1, To: 0,
		Target: 1, Source: 1, Seq: seqStride})
	ret := timers(effs)[len(timers(effs))-1]
	effs = n.HandleTimer(TimerTokenReturn, ret.Gen)
	effs = n.HandleMessage(Message{Kind: KindEnquiryReply, From: 1, To: 0,
		Seq: seqStride, Status: StatusInCS})
	if len(timers(effs)) == 0 {
		t.Fatal("in-cs reply did not re-arm the return timer")
	}
	if n.TokenHere() {
		t.Error("in-cs reply must not regenerate")
	}
	// The genuine return then completes the loan.
	n.HandleMessage(Message{Kind: KindToken, From: 1, To: 0, Lender: ocube.None,
		Source: 1, Seq: seqStride})
	if !n.TokenHere() || n.Asking() {
		t.Error("return not processed after enquiry cycle")
	}
}

func TestTokenAckSentForUnlentTokenOnly(t *testing.T) {
	n := ftNode(t, 9, 4)
	n.RequestCS()
	effs := n.HandleMessage(Message{Kind: KindToken, From: 8, To: 9, Lender: 8, Seq: seqStride})
	for _, m := range sends(effs) {
		if m.Kind == KindTokenAck {
			t.Error("lent token must not be acked (the lender guards it)")
		}
	}
	n2 := ftNode(t, 10, 4)
	n2.RequestCS()
	effs = n2.HandleMessage(Message{Kind: KindToken, From: 8, To: 10,
		Lender: ocube.None, Seq: seqStride})
	var acked bool
	for _, m := range sends(effs) {
		if m.Kind == KindTokenAck && m.To == 8 {
			acked = true
		}
	}
	if !acked {
		t.Error("unlent token was not acknowledged")
	}
}

func TestQueueReplaceInPlaceOnReissue(t *testing.T) {
	// A busy node holding a queued request replaces it when the re-issue
	// arrives instead of queueing a duplicate.
	n := ftNode(t, 0, 3)
	n.RequestCS() // root grabs its own token; asking while in CS
	if !n.InCS() {
		t.Fatal("root did not self-grant")
	}
	n.HandleMessage(Message{Kind: KindRequest, From: 2, To: 0, Target: 2, Source: 2, Seq: seqStride})
	if n.QueueLen() != 1 {
		t.Fatalf("queue = %d, want 1", n.QueueLen())
	}
	n.HandleMessage(Message{Kind: KindRequest, From: 2, To: 0, Target: 2, Source: 2,
		Seq: seqStride + 1, Regen: true})
	if n.QueueLen() != 1 {
		t.Errorf("queue = %d after re-issue, want 1 (replaced in place)", n.QueueLen())
	}
}

func TestRecoverSurvivesSequenceMonotonicity(t *testing.T) {
	// The request sequence counter persists across recovery (stable
	// storage), so post-recovery requests supersede pre-crash ones.
	n := ftNode(t, 9, 4)
	effs, _ := n.RequestCS()
	first := sends(effs)[0].Seq
	n.Recover()
	n.HandleMessage(Message{Kind: KindTestReply, From: 8, To: 9, Phase: 1, Gen: 1, Reply: ReplyOK})
	effs, err := n.RequestCS()
	if err != nil {
		t.Fatal(err)
	}
	second := sends(effs)[0].Seq
	if second <= first {
		t.Errorf("post-recovery seq %d not above pre-crash %d", second, first)
	}
}

func TestStaleGenerationReplyIgnored(t *testing.T) {
	// A reply carrying an earlier repair generation answers a probe from
	// an abandoned search and must not touch the live one (the Gen fence
	// that makes carrying candidates across phases sound).
	n := ftNode(t, 9, 4)
	effs, _ := n.RequestCS()
	n.HandleTimer(TimerSuspicion, timers(effs)[0].Gen) // search #1, gen 1
	n.HandleMessage(Message{Kind: KindObsolete, From: 0, To: 9, Source: 9, Seq: seqStride})
	if !n.Searching() {
		t.Fatal("search #1 not active")
	}
	// Conclude #1, then suspect again: search #2 runs under gen 2.
	n.HandleMessage(Message{Kind: KindTestReply, From: 8, To: 9, Phase: 1, Gen: 1, Reply: ReplyOK})
	effs = n.HandleMessage(Message{Kind: KindAnomaly, From: 8, To: 9})
	if !n.Searching() {
		t.Fatal("search #2 not active")
	}
	// A stale gen-1 ok for the same candidate is ignored; the current
	// search keeps waiting.
	n.HandleMessage(Message{Kind: KindTestReply, From: 8, To: 9, Phase: 1, Gen: 1, Reply: ReplyOK})
	if !n.Searching() {
		t.Error("stale-generation reply concluded the live search")
	}
	n.HandleMessage(Message{Kind: KindTestReply, From: 8, To: 9, Phase: 1, Gen: 2, Reply: ReplyOK})
	if n.Searching() || n.Father() != 8 {
		t.Error("current-generation reply was not adopted")
	}
	_ = effs
}

func TestInCSAnswersBusyAndIsRetested(t *testing.T) {
	// The critical-section holder answers probes with busy — never
	// discarded by the wait-chain rules — so no sweep can exhaust (and
	// regenerate) past the one node known to hold the token.
	holder := ftNode(t, 0, 3)
	holder.RequestCS() // root self-grant
	if !holder.InCS() {
		t.Fatal("root did not self-grant")
	}
	effs := holder.HandleMessage(Message{Kind: KindTest, From: 4, To: 0, Phase: 3, Gen: 9})
	msgs := sends(effs)
	if len(msgs) != 1 || msgs[0].Reply != ReplyBusy || msgs[0].Gen != 9 {
		t.Fatalf("in-CS probe answer = %v, want busy echoing gen", msgs)
	}

	searcher := ftNode(t, 9, 4)
	effs, _ = searcher.RequestCS()
	searcher.HandleTimer(TimerSuspicion, timers(effs)[0].Gen)
	searcher.HandleMessage(Message{Kind: KindTestReply, From: 8, To: 9, Phase: 1, Gen: 1, Reply: ReplyBusy})
	if !searcher.Searching() {
		t.Fatal("busy answer ended the search")
	}
	// The busy candidate is deferred, never discarded: the carry round
	// re-probes it at its own distance.
	effs = searcher.HandleTimer(TimerSuspicion, searcher.TimerGen(TimerSuspicion))
	var reprobed bool
	for _, m := range sends(effs) {
		if m.Kind == KindTest && m.To == 8 {
			reprobed = true
		}
	}
	if !reprobed {
		t.Error("busy candidate was not re-probed next round")
	}
}

func TestObsoletePropagatesDownMandateChain(t *testing.T) {
	// Proxy 8 mandates a request whose mandator is another proxy (12),
	// not the source: an obsolete must clear 8's mandate AND travel on to
	// 12, whose mandate for the same request is equally dead — the §7
	// zombie-mandate fix.
	n := ftNode(t, 8, 4)
	n.HandleMessage(Message{Kind: KindRequest, From: 10, To: 8,
		Target: 10, Source: 9, Seq: seqStride})
	if n.Mandator() != 10 {
		t.Fatalf("mandator = %v, want 10", n.Mandator())
	}
	effs := n.HandleMessage(Message{Kind: KindObsolete, From: 0, To: 8, Source: 9, Seq: seqStride})
	if n.Mandator() != ocube.None || n.Asking() {
		t.Error("obsolete did not clear the mandate")
	}
	msgs := sends(effs)
	if len(msgs) != 1 || msgs[0].Kind != KindObsolete || msgs[0].To != 10 ||
		msgs[0].Source != 9 || msgs[0].Seq != seqStride {
		t.Errorf("propagated obsolete = %v, want obsolete(src=9) to 10", msgs)
	}

	// When the mandator IS the source, propagation stops: the source's
	// own claim is never cleared by an obsolete.
	n2 := ftNode(t, 8, 4)
	n2.HandleMessage(Message{Kind: KindRequest, From: 9, To: 8,
		Target: 9, Source: 9, Seq: seqStride})
	effs = n2.HandleMessage(Message{Kind: KindObsolete, From: 0, To: 8, Source: 9, Seq: seqStride})
	for _, m := range sends(effs) {
		if m.Kind == KindObsolete {
			t.Errorf("obsolete propagated to the source itself: %v", m)
		}
	}
}

func TestCrossBlockStaleRequestObsoletesZombieProxy(t *testing.T) {
	// Node 0 has seen source 9's block-2 request; a block-1 re-issue is a
	// zombie proxy's copy of a logical request the source abandoned. The
	// drop must notify the re-issuing proxy (the §7 two-node circulation
	// fix), while same-block staleness stays silent — it supersedes the
	// copy without killing the mandate.
	n := ftNode(t, 0, 4)
	n.RequestCS() // hold the CS so requests queue rather than serve
	n.HandleMessage(Message{Kind: KindRequest, From: 1, To: 0,
		Target: 1, Source: 9, Seq: 2 * seqStride})
	effs := n.HandleMessage(Message{Kind: KindRequest, From: 12, To: 0,
		Target: 12, Source: 9, Seq: seqStride + 5, Regen: true})
	var obsoleted bool
	for _, m := range sends(effs) {
		if m.Kind == KindObsolete && m.To == 12 && m.Seq == seqStride+5 {
			obsoleted = true
		}
	}
	if !obsoleted {
		t.Error("cross-block stale re-issue did not obsolete its proxy")
	}
	effs = n.HandleMessage(Message{Kind: KindRequest, From: 12, To: 0,
		Target: 12, Source: 9, Seq: 2*seqStride - 1, Regen: true})
	_ = effs // same block 1 as seqStride+5: still stale, still cross-block from 2*seqStride
}

func TestOwnRequestReturnedIsAdjudicated(t *testing.T) {
	// Node 9's own request comes back as a proxy's re-issue (a recovery
	// duplicate that looped). The source must never take a proxy mandate
	// on itself — that is a mandate cycle — and instead kills the copy,
	// obsoletes its holder and re-issues under a superseding sequence.
	n := ftNode(t, 9, 4)
	effs, _ := n.RequestCS()
	first := sends(effs)[0].Seq
	effs = n.HandleMessage(Message{Kind: KindRequest, From: 11, To: 9,
		Target: 11, Source: 9, Seq: first + 3, Regen: true})
	if n.Mandator() != 9 {
		t.Errorf("mandator = %v, want the node's own claim intact", n.Mandator())
	}
	var obsoleted bool
	var reissue *Message
	for _, m := range sends(effs) {
		if m.Kind == KindObsolete && m.To == 11 {
			obsoleted = true
		}
		if m.Kind == KindRequest {
			v := m
			reissue = &v
		}
	}
	if !obsoleted {
		t.Error("returned own request did not obsolete its holder")
	}
	if reissue == nil || reissue.Seq <= first+3 || !sameRequest(reissue.Seq, first) {
		t.Errorf("re-issue = %v, want same-block seq above %d", reissue, first+3)
	}
}

func TestProxyResyncsMandateToNewerReissue(t *testing.T) {
	// Proxy 8 mandates source 9's request at sequence s; the source
	// re-issues at s+20 through a repaired path and the copy lands on 8.
	// 8 must adopt the newer sequence and push a fresh re-issue — its old
	// copies are stale everywhere and the newer copy must not sit hostage
	// in 8's held queue (the §7 mutual-wait pair).
	n := ftNode(t, 8, 4)
	n.HandleMessage(Message{Kind: KindRequest, From: 9, To: 8,
		Target: 9, Source: 9, Seq: seqStride})
	if n.Mandator() != 9 || n.QueueLen() != 0 {
		t.Fatalf("proxy state: mandator=%v qlen=%d", n.Mandator(), n.QueueLen())
	}
	effs := n.HandleMessage(Message{Kind: KindRequest, From: 9, To: 8,
		Target: 9, Source: 9, Seq: seqStride + 20, Regen: true})
	if n.QueueLen() != 0 {
		t.Errorf("newer re-issue was queued (qlen=%d), want mandate re-sync", n.QueueLen())
	}
	msgs := sends(effs)
	if len(msgs) != 1 || msgs[0].Kind != KindRequest || msgs[0].Seq != seqStride+20 ||
		msgs[0].Source != 9 || !msgs[0].Regen {
		t.Errorf("re-sync re-issue = %v, want regen request at seq %d", msgs, seqStride+20)
	}
}

func TestDuplicateTokenWhileInCSAbsorbed(t *testing.T) {
	// A second token reaching a node inside its critical section is a
	// regeneration-race duplicate. It must be absorbed — acked (releasing
	// the sender's guardianship) and dropped — NOT treated as a loan
	// return, which would clear the asking flag mid-CS and drain the
	// queue under the running critical section.
	n := ftNode(t, 0, 3)
	n.RequestCS()
	if !n.InCS() {
		t.Fatal("no self-grant")
	}
	n.HandleMessage(Message{Kind: KindRequest, From: 2, To: 0, Target: 2, Source: 2, Seq: seqStride})
	if n.QueueLen() != 1 {
		t.Fatal("request not queued behind the CS")
	}
	rep := watch(n)
	effs := n.HandleMessage(Message{Kind: KindToken, From: 5, To: 0, Lender: ocube.None,
		Source: 3, Seq: 7 * seqStride})
	if !n.InCS() || !n.Asking() || n.QueueLen() != 1 {
		t.Errorf("duplicate token disturbed the CS: inCS=%v asking=%v qlen=%d",
			n.InCS(), n.Asking(), n.QueueLen())
	}
	var acked bool
	for _, m := range sends(effs) {
		acked = acked || m.Kind == KindTokenAck
	}
	if dropped := rep.take().dropped("duplicate token"); !acked || !dropped {
		t.Errorf("duplicate token handling: acked=%v dropped=%v, want both", acked, dropped)
	}
}

func TestStrayTokenAdoptionEndsRecoverySearch(t *testing.T) {
	// An unlent token adopted during an active recovery search must end
	// the search: a conclusion arriving later would overwrite the root's
	// nil father, demoting the token holder into a mute low-power node —
	// the witness whose ok blocks every other searcher's regeneration.
	n := ftNode(t, 8, 4)
	n.Recover()
	if !n.Searching() {
		t.Fatal("no recovery search")
	}
	n.HandleMessage(Message{Kind: KindToken, From: 3, To: 8, Lender: ocube.None,
		Source: 5, Seq: seqStride})
	if n.Searching() {
		t.Error("recovery search survived stray-token adoption")
	}
	if !n.TokenHere() || n.Father() != ocube.None {
		t.Errorf("adoption state: token=%v father=%v, want root with token", n.TokenHere(), n.Father())
	}
	// The stale reply of the dead search must not re-point the root.
	n.HandleMessage(Message{Kind: KindTestReply, From: 9, To: 8, Phase: 1, Gen: 1, Reply: ReplyOK})
	if n.Father() != ocube.None {
		t.Error("dead recovery search's reply re-pointed the token-holding root")
	}
}

func TestEpochFenceRefusesStaleToken(t *testing.T) {
	fence := func(on bool) *Node {
		n, err := NewNode(Config{Self: 9, P: 4, FT: true,
			Delta: time.Millisecond, CSEstimate: time.Millisecond, EpochFence: on})
		if err != nil {
			t.Fatal(err)
		}
		// Teach the node epoch 5, then complete that cycle.
		n.HandleMessage(Message{Kind: KindToken, From: 8, To: 9, Lender: ocube.None,
			Source: 9, Seq: seqStride, Epoch: 5})
		if n.Epoch() != 5 {
			t.Fatalf("epoch high-water = %d, want 5", n.Epoch())
		}
		return n
	}

	// Fenced: a stale-epoch token must not serve the node's claim.
	n := fence(true)
	n.HandleMessage(Message{Kind: KindRequest, From: 12, To: 9, Target: 12, Source: 12, Seq: seqStride})
	rep := watch(n)
	n.HandleMessage(Message{Kind: KindToken, From: 3, To: 9, Lender: ocube.None,
		Source: 12, Seq: seqStride, Epoch: 3})
	if n.TokenHere() {
		t.Error("fenced node adopted a stale-epoch token")
	}
	got := rep.take()
	sighted, dropped := len(got.of(TokenEvStale)) == 1, got.dropped("stale epoch fenced")
	if n.Host().StaleTokens() != 1 {
		t.Errorf("host counted %d stale sightings, want 1", n.Host().StaleTokens())
	}
	if !sighted || !dropped {
		t.Errorf("fence effects: sighted=%v dropped=%v, want both", sighted, dropped)
	}

	// Unfenced: the same token is adopted (observability only).
	n2 := fence(false)
	n2.HandleMessage(Message{Kind: KindRequest, From: 12, To: 9, Target: 12, Source: 12, Seq: seqStride})
	n2.HandleMessage(Message{Kind: KindToken, From: 3, To: 9, Lender: ocube.None,
		Source: 12, Seq: seqStride, Epoch: 3})
	if n2.TokenHere() {
		// The token was forwarded onward to the mandator, so TokenHere is
		// false — but the node must have ACTED on it (mandate cleared).
		t.Log("token forwarded")
	}
	if n2.Mandator() != ocube.None {
		t.Error("unfenced node ignored the stale-epoch token")
	}
}

// TestFencedReceiptedClaimIsNotStranded pins the chaos smoke shape's
// seed 91 stuck. Root 0 transfers the token to 2 for 2's claim and
// records the claim as granted. 2 knows a newer epoch and fences the
// token out; the session's receipt has already released 0, so no
// watchdog rolls 0's record back. 2's next re-issue must not fall in the
// granted block: 0 would drop it as "request already granted", and on
// the live rig it did, every suspicion period until the run ended.
func TestFencedReceiptedClaimIsNotStranded(t *testing.T) {
	fenced := func(self ocube.Pos) *Node {
		n, err := NewNode(Config{Self: self, P: 2, FT: true, EpochFence: true,
			Delta: time.Millisecond, CSEstimate: time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	g, r := fenced(0), fenced(2)
	// 2 learns epoch 3 from a stray loan it has no use for.
	r.HandleMessage(Message{Kind: KindToken, From: 1, To: 2, Lender: 1, Epoch: 3})
	effs, _ := r.RequestCS()
	suspicion := timerOf(t, effs, TimerSuspicion)
	req := sends(effs)[0]
	req.From = 2
	tok := sends(g.HandleMessage(req))[0]
	tok.From, tok.Receipted = 0, true
	rep := watch(r)
	r.HandleMessage(tok)
	if !rep.take().dropped("stale epoch fenced") || r.TokenHere() {
		t.Fatal("recipient did not fence the stale token out")
	}
	g.HandleMessage(Message{Kind: KindTokenAck, From: 2, To: 0, Seq: tok.Seq}) // the receipt

	// 2 suspects and searches; 0 — the root again in the chaos run, where
	// its own search regenerated — answers ok and gets the re-issue.
	effs = r.HandleTimer(TimerSuspicion, suspicion.Gen)
	probe := sends(effs)[0]
	reissue := sends(r.HandleMessage(Message{Kind: KindTestReply, From: 0, To: 2,
		Phase: probe.Phase, Gen: probe.Gen, Reply: ReplyOK}))
	if len(reissue) != 1 || reissue[0].Kind != KindRequest || reissue[0].To != 0 {
		t.Fatalf("re-issue = %v, want one request to 0", reissue)
	}
	if sameRequest(reissue[0].Seq, tok.Seq) {
		t.Errorf("re-issue seq %d is in the block 0 recorded as granted (%d)", reissue[0].Seq, tok.Seq)
	}
	reissue[0].From = 2
	rep = watch(g)
	g.HandleMessage(reissue[0])
	if rep.take().dropped("request already granted") {
		t.Error("the claim's sender dropped its re-issue as already granted")
	}
}
