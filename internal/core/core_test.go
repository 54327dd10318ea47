package core

import (
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/ocube"
)

func newTestNode(t *testing.T, self ocube.Pos, p int) *Node {
	t.Helper()
	n, err := NewNode(Config{Self: self, P: p})
	if err != nil {
		t.Fatalf("NewNode: %v", err)
	}
	return n
}

// reports collects what a node reports through Config.Observe.
type reports []TokenEvent

// watch makes n report into a fresh reports from now on.
func watch(n *Node) *reports {
	r := new(reports)
	n.h.cfg.Observe = func(ev TokenEvent) { *r = append(*r, ev) }
	return r
}

// take returns what was reported since the last take and forgets it.
func (r *reports) take() reports {
	out := *r
	*r = nil
	return out
}

// of returns the reports of one kind.
func (r reports) of(kind TokenEventKind) reports {
	var out reports
	for _, ev := range r {
		if ev.Kind == kind {
			out = append(out, ev)
		}
	}
	return out
}

// dropped reports whether a drop was reported whose reason contains
// reason.
func (r reports) dropped(reason string) bool {
	for _, ev := range r.of(TokenEvDropped) {
		if strings.Contains(ev.Reason, reason) {
			return true
		}
	}
	return false
}

func TestNewNodeValidation(t *testing.T) {
	tests := []struct {
		name string
		cfg  Config
	}{
		{"negative order", Config{Self: 0, P: -1}},
		{"huge order", Config{Self: 0, P: ocube.MaxP + 1}},
		{"self out of range", Config{Self: 4, P: 2}},
		{"negative self", Config{Self: -1, P: 2}},
		{"ft without delta", Config{Self: 0, P: 2, FT: true}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := NewNode(tt.cfg); err == nil {
				t.Errorf("NewNode(%+v) succeeded, want error", tt.cfg)
			}
		})
	}
}

func TestNewNodeInitialState(t *testing.T) {
	root := newTestNode(t, 0, 3)
	if !root.TokenHere() || root.Father() != ocube.None {
		t.Error("position 0 must start as root with the token")
	}
	leaf := newTestNode(t, 7, 3)
	if leaf.TokenHere() {
		t.Error("non-root starts with token")
	}
	if got, want := leaf.Father(), ocube.InitialFather(7); got != want {
		t.Errorf("father = %v, want %v", got, want)
	}
	if leaf.Power() != 0 || root.Power() != 3 {
		t.Errorf("powers = %d,%d, want 0,3", leaf.Power(), root.Power())
	}
	if root.Policy().Name() != "open-cube" {
		t.Errorf("default policy = %q", root.Policy().Name())
	}
}

func TestRootDirectGrantAndRelease(t *testing.T) {
	n := newTestNode(t, 0, 2)
	effs, err := n.RequestCS()
	if err != nil {
		t.Fatalf("RequestCS: %v", err)
	}
	var granted bool
	for _, e := range effs {
		if _, ok := e.(*Grant); ok {
			granted = true
		}
	}
	if n.lender != 0 {
		t.Errorf("lender = %v, want self", n.lender)
	}
	if !granted || !n.InCS() {
		t.Fatal("root with idle token was not granted directly")
	}
	if _, err := n.RequestCS(); !errors.Is(err, ErrBusy) {
		t.Errorf("second RequestCS error = %v, want ErrBusy", err)
	}
	effs, err = n.ReleaseCS()
	if err != nil {
		t.Fatalf("ReleaseCS: %v", err)
	}
	for _, e := range effs {
		if s, ok := e.(*Send); ok {
			t.Errorf("root release sent %v; must keep the token", s.Msg)
		}
	}
	if !n.TokenHere() || n.Asking() || n.InCS() {
		t.Error("root state wrong after release")
	}
	if _, err := n.ReleaseCS(); !errors.Is(err, ErrNotInCS) {
		t.Errorf("double release error = %v, want ErrNotInCS", err)
	}
}

func TestLeafRequestSendsToFather(t *testing.T) {
	n := newTestNode(t, 5, 3) // paper node 6, father paper node 5 (pos 4)
	effs, err := n.RequestCS()
	if err != nil {
		t.Fatalf("RequestCS: %v", err)
	}
	var sent *Message
	for _, e := range effs {
		if s, ok := e.(*Send); ok {
			m := s.Msg
			sent = &m
		}
	}
	if sent == nil {
		t.Fatal("no request sent")
	}
	if sent.Kind != KindRequest || sent.To != 4 || sent.Target != 5 || sent.Source != 5 {
		t.Errorf("sent %v, want request(target=6 src=6) to position 4", sent)
	}
	if !n.Asking() || n.Mandator() != 5 {
		t.Error("requesting leaf must be asking with mandator=self")
	}
}

func TestPolicyDecisions(t *testing.T) {
	// Views on the pristine 16-cube.
	root := View{Self: 0, Father: ocube.None, TokenHere: true, Pmax: 4}
	mid := View{Self: 8, Father: 0, TokenHere: false, Pmax: 4} // paper node 9, power 3

	tests := []struct {
		name   string
		pol    Policy
		v      View
		target ocube.Pos
		want   Behavior
	}{
		// Section 3.2: node 1 is transit for 9 (dist 4 = power) and proxy
		// for 5 (dist 3 < power).
		{"open-cube root transit for last-son subtree", OpenCubePolicy{}, root, 8, BehaviorTransit},
		{"open-cube root proxy", OpenCubePolicy{}, root, 4, BehaviorProxy},
		// Node 9 (power 3): transit for 13 (dist 3... pos 12), proxy for 10.
		{"open-cube mid transit", OpenCubePolicy{}, mid, 12, BehaviorTransit},
		{"open-cube mid proxy", OpenCubePolicy{}, mid, 9, BehaviorProxy},
		// Section 5 anomaly: a power-0 node asked to serve distance 3.
		{"open-cube anomaly", OpenCubePolicy{},
			View{Self: 8, Father: 9, Pmax: 4}, 12, BehaviorAnomaly},
		{"raymond transit with token", RaymondPolicy{}, root, 4, BehaviorTransit},
		{"raymond proxy without token", RaymondPolicy{}, mid, 9, BehaviorProxy},
		{"naimi-trehel always transit", NaimiTrehelPolicy{}, mid, 9, BehaviorTransit},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.pol.Decide(tt.v, tt.target); got != tt.want {
				t.Errorf("Decide = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestViewPower(t *testing.T) {
	if p := (View{Self: 3, Father: ocube.None, Pmax: 5}).Power(); p != 5 {
		t.Errorf("root power = %d, want 5", p)
	}
	if p := (View{Self: 8, Father: 0, Pmax: 4}).Power(); p != 3 {
		t.Errorf("power = %d, want 3", p)
	}
}

func TestStaleTimerIgnored(t *testing.T) {
	n, err := NewNode(Config{Self: 5, P: 3, FT: true, Delta: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	effs, err := n.RequestCS()
	if err != nil {
		t.Fatal(err)
	}
	var st *StartTimer
	for _, e := range effs {
		if s, ok := e.(*StartTimer); ok && s.Kind == TimerSuspicion {
			v := *s // copy: the arena value expires at the next node call
			st = &v
		}
	}
	if st == nil {
		t.Fatal("FT request armed no suspicion timer")
	}
	if effs := n.HandleTimer(TimerSuspicion, st.Gen-1); effs != nil {
		t.Errorf("stale timer produced effects: %v", effs)
	}
	// The live generation must start a search, at phase power+1 = 1.
	rep := watch(n)
	n.HandleTimer(TimerSuspicion, st.Gen)
	if !n.Searching() {
		t.Error("live suspicion fire did not start search_father")
	}
	if got := rep.take().of(TokenEvSearchStarted); len(got) != 1 || got[0].Seq != 1 || got[0].Self != 5 {
		t.Errorf("search-started reports = %+v, want one from node 5 at phase 1", got)
	}
}

func TestUnexpectedLentTokenDropped(t *testing.T) {
	// A lent token has a guardian (the lender's watchdog), so a non-asking
	// recipient discards it.
	n := newTestNode(t, 3, 2)
	rep := watch(n)
	n.HandleMessage(Message{Kind: KindToken, From: 0, To: 3, Lender: 0})
	if !rep.dropped("unexpected lent token") || n.TokenHere() {
		t.Error("unexpected lent token must be dropped without adoption")
	}
}

func TestUnexpectedUnlentTokenAdopted(t *testing.T) {
	// An unlent token is an ownership transfer with no guardian: the
	// recipient adopts it and becomes the root.
	n := newTestNode(t, 3, 2)
	rep := watch(n)
	n.HandleMessage(Message{Kind: KindToken, From: 0, To: 3, Lender: ocube.None})
	if !n.TokenHere() || n.Father() != ocube.None {
		t.Error("stray unlent token must be adopted (token held, root)")
	}
	if n.InCS() || n.Asking() {
		t.Error("adoption must not enter the critical section")
	}
	if got := rep.take().of(TokenEvDropped); len(got) != 0 {
		t.Errorf("adopted token reported dropped: %+v", got)
	}
}

func TestRequestTargetingSelfDropped(t *testing.T) {
	n := newTestNode(t, 3, 2)
	rep := watch(n)
	effs := n.HandleMessage(Message{Kind: KindRequest, From: 1, To: 3, Target: 3, Source: 3, Seq: seqStride})
	if got := rep.take(); !got.dropped("self") || got[0].Peer != 1 || got[0].Seq != seqStride {
		t.Errorf("self-targeted request not reported dropped from 1 at its sequence: %+v (effects %v)", got, effs)
	}
}

func TestStaleSequenceDropped(t *testing.T) {
	n := newTestNode(t, 0, 2) // root with token
	fresh := Message{Kind: KindRequest, From: 2, To: 0, Target: 2, Source: 2, Seq: 2 * seqStride}
	n.HandleMessage(fresh)
	stale := fresh
	stale.Seq = seqStride
	rep := watch(n)
	effs := n.HandleMessage(stale)
	if got := rep.take(); !got.dropped("stale") {
		t.Errorf("stale request not reported dropped: %+v (effects %v)", got, effs)
	}
}

func TestSameRequest(t *testing.T) {
	base := uint64(7 * seqStride)
	if !sameRequest(base, base+5) {
		t.Error("re-issued sequence not recognized as same request")
	}
	if sameRequest(base, base+seqStride) {
		t.Error("distinct requests recognized as same")
	}
}

func TestStringers(t *testing.T) {
	msgs := []Message{
		{Kind: KindRequest, From: 1, To: 2, Target: 3, Source: 4, Seq: 9, Regen: true},
		{Kind: KindToken, From: 1, To: 2, Lender: ocube.None},
		{Kind: KindEnquiry, From: 1, To: 2, Seq: 3},
		{Kind: KindEnquiryReply, From: 2, To: 1, Status: StatusInCS},
		{Kind: KindTest, From: 1, To: 2, Phase: 2},
		{Kind: KindTestReply, From: 2, To: 1, Phase: 2, Reply: ReplyOK},
		{Kind: KindAnomaly, From: 1, To: 2},
		{Kind: Kind(99), From: 1, To: 2},
	}
	for _, m := range msgs {
		if m.String() == "" {
			t.Errorf("empty String for %v", m.Kind)
		}
	}
	for _, k := range []Kind{KindRequest, KindToken, KindEnquiry, KindEnquiryReply, KindTest, KindTestReply, KindAnomaly, Kind(42)} {
		if k.String() == "" {
			t.Error("empty Kind string")
		}
	}
	for _, s := range []EnquiryStatus{StatusInCS, StatusTokenReturned, StatusTokenLost, EnquiryStatus(9)} {
		if s.String() == "" {
			t.Error("empty status string")
		}
	}
	for _, r := range []TestReply{ReplyOK, ReplyTryLater, TestReply(9)} {
		if r.String() == "" {
			t.Error("empty reply string")
		}
	}
	for _, b := range []Behavior{BehaviorTransit, BehaviorProxy, BehaviorAnomaly, Behavior(9)} {
		if b.String() == "" {
			t.Error("empty behavior string")
		}
	}
	for _, k := range []TimerKind{TimerSuspicion, TimerTokenReturn, TimerTransferAck, TimerKind(9)} {
		if k.String() == "" {
			t.Error("empty timer kind string")
		}
	}
}

func TestUnknownMessageKindDropped(t *testing.T) {
	n := newTestNode(t, 0, 1)
	rep := watch(n)
	if effs := n.HandleMessage(Message{Kind: Kind(77), From: 1, To: 0}); len(effs) != 0 {
		t.Errorf("effects = %v, want none", effs)
	}
	if got := rep.take(); len(got) != 1 || !got.dropped("unknown kind") {
		t.Errorf("reports = %+v, want a single unknown-kind drop", got)
	}
}

func TestOutOfRangeSourceDropped(t *testing.T) {
	// Malformed network input: a request whose Source (or Target) is
	// outside the position range must be dropped before it reaches the
	// tracking table, whose empty-slot sentinel is ocube.None (-1).
	n := newTestNode(t, 0, 2)
	rep := watch(n)
	for _, m := range []Message{
		{Kind: KindRequest, From: 1, To: 0, Target: 2, Source: ocube.None, Seq: seqStride},
		{Kind: KindRequest, From: 1, To: 0, Target: 2, Source: 99, Seq: seqStride},
		{Kind: KindRequest, From: 1, To: 0, Target: ocube.None, Source: 2, Seq: seqStride},
	} {
		n.HandleMessage(m)
		if !rep.take().dropped("out of range") || n.QueueLen() != 0 || !n.TokenHere() {
			t.Errorf("malformed request %v was not dropped cleanly", m)
		}
		if err := n.CheckPools(); err != nil {
			t.Errorf("after %v: %v", m, err)
		}
	}
}
