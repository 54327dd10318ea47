package core

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/ocube"
)

// fire delivers the live fire of kind's timer.
func fire(n *Node, kind TimerKind) []Effect { return n.HandleTimer(kind, n.TimerGen(kind)) }

// exhaust closes search rounds until the node's search ends, returning the
// effects of the last round.
func exhaust(t *testing.T, n *Node) []Effect {
	t.Helper()
	var effs []Effect
	for i := 0; n.Searching(); i++ {
		if i == 100 {
			t.Fatal("search never ended")
		}
		effs = fire(n, TimerSuspicion)
	}
	return effs
}

// effectLine renders effects compactly, in order.
func effectLine(effs []Effect) string {
	var parts []string
	for _, e := range effs {
		switch e := e.(type) {
		case *Send:
			m := e.Msg
			s := fmt.Sprintf("%v→%d", m.Kind, m.To)
			if m.Kind == KindToken {
				s += fmt.Sprintf("(lender=%d src=%d seq=%d epoch=%d)", m.Lender, m.Source, m.Seq, m.Epoch)
			}
			parts = append(parts, s)
		case *Grant:
			parts = append(parts, fmt.Sprintf("grant(fence=%#x)", e.Fence))
		case *StartTimer:
			parts = append(parts, fmt.Sprintf("timer(%v)", e.Kind))
		}
	}
	return strings.Join(parts, " ")
}

// TestRootCustodyEntries walks every way a node comes to hold an unlent
// token as the root — an adopted ownership transfer, a stale transfer to an
// idle node, a loan's return (unlent or still lent) and the six
// regeneration triggers — against what the node has pending at that
// moment: its own claim, a mandate, or nothing. All of them end in
// serveAsRoot, so each cell pins the service it performed: the effects of
// the entry input and the node's father, lender, asking flag and loan.
//
// Missing cells are unreachable: a lender holds no claim or mandate while
// its loan is out (its queue is held by the asking flag), an idle node has
// none by definition, and an asking node with no mandate and no loan is
// inside its critical section, where a second token is dropped, not
// served. A nothing-pending cell queues a local wish where the node can
// hold one at that moment, so its pin shows the queue resuming.
func TestRootCustodyEntries(t *testing.T) {
	cells, _ := custodyCells(t)
	pos := func(p ocube.Pos) string {
		if p == ocube.None {
			return "None"
		}
		return fmt.Sprint(int(p))
	}
	for _, c := range cells {
		t.Run(c.row+"/"+c.col, func(t *testing.T) {
			n := c.node(t)
			for _, step := range c.pending {
				step(n)
			}
			if c.col != "nothing pending" && n.Father() == ocube.None {
				t.Fatal("setup left the node fatherless: the cell cannot show the step naming it root")
			}
			if got := effectLine(c.entry(n)); got != c.effects {
				t.Errorf("effects:\n got %s\nwant %s", got, c.effects)
			}
			got := fmt.Sprintf("father=%s lender=%s asking=%v loan=%s", pos(n.father), pos(n.lender), n.asking, pos(n.loanSource))
			if got != c.state {
				t.Errorf("state:\n got %s\nwant %s", got, c.state)
			}
			if !n.tokenHere && n.loanSource == ocube.None {
				t.Error("the root ended without the token and without a loan")
			}
		})
	}
}

// custodyCell is one entry of TestRootCustodyEntries: a node, the
// obligation set up on it, the input that makes it the root, and what
// that input must emit and leave.
type custodyCell struct {
	row, col string
	node     func(*testing.T) *Node
	pending  []func(*Node)
	entry    func(*Node) []Effect
	effects  string
	state    string
}

// custodyCells returns TestRootCustodyEntries' table, and — built from the
// same setups, with no entry — the further crash points of
// TestRecoverIsRestart: a lender with a loan out, a proxy holding a
// mandate, a searcher, a node in its critical section and a transfer
// guardian.
func custodyCells(t *testing.T) (cells, crashes []custodyCell) {
	const P = 3
	const S = seqStride
	// In the pristine 8-cube, 4's father is 0 and its power 2, so a
	// request from 5 (distance 1) makes 4 a proxy, and 0 — power 3 —
	// lends to 1 (distance 1) but gives the token outright to 4
	// (distance 3).
	leaf4 := func(t *testing.T) *Node { return ftNode(t, 4, P) }
	claim := func(n *Node) { n.RequestCS() }
	mandate := func(from ocube.Pos) func(*Node) {
		return func(n *Node) {
			n.HandleMessage(Message{Kind: KindRequest, From: from, To: n.Self(), Target: from, Source: from, Seq: S})
		}
	}
	lender := func(t *testing.T) *Node {
		n := ftNode(t, 0, P)
		n.HandleMessage(Message{Kind: KindRequest, From: 1, To: 0, Target: 1, Source: 1, Seq: S})
		n.RequestCS() // queued behind the loan
		return n
	}
	overdue := func(n *Node) { fire(n, TimerTokenReturn) }
	transferred := func(t *testing.T) *Node {
		n := ftNode(t, 0, P)
		n.HandleMessage(Message{Kind: KindRequest, From: 4, To: 0, Target: 4, Source: 4, Seq: S})
		return n
	}
	transferLost := func(n *Node) []Effect { return fire(n, TimerTransferAck) }
	suspect := func(n *Node) { fire(n, TimerSuspicion) }

	cells = []custodyCell{
		{"adopted transfer", "own claim", leaf4, []func(*Node){claim},
			func(n *Node) []Effect {
				return n.HandleMessage(Message{Kind: KindToken, From: 0, To: 4, Lender: ocube.None, Source: 4, Seq: S})
			},
			"token-ack→0 grant(fence=0x1)",
			"father=None lender=4 asking=true loan=None"},
		{"adopted transfer", "mandate", leaf4, []func(*Node){mandate(5)},
			func(n *Node) []Effect {
				return n.HandleMessage(Message{Kind: KindToken, From: 0, To: 4, Lender: ocube.None, Source: 5, Seq: S})
			},
			"token-ack→0 token→5(lender=4 src=5 seq=1048576 epoch=0) timer(token-return)",
			"father=None lender=None asking=true loan=5"},
		{"stale transfer to an idle node", "nothing pending", leaf4, nil,
			func(n *Node) []Effect {
				return n.HandleMessage(Message{Kind: KindToken, From: 0, To: 4, Lender: ocube.None, Source: 7, Seq: 3 * S})
			},
			"token-ack→0",
			"father=None lender=None asking=false loan=None"},
		{"loan returned unlent", "nothing pending", lender, nil,
			func(n *Node) []Effect {
				return n.HandleMessage(Message{Kind: KindToken, From: 1, To: 0, Lender: ocube.None, Source: 1, Seq: S})
			},
			"token-ack→1 grant(fence=0x1)",
			"father=None lender=0 asking=true loan=None"},
		{"loan returned still lent", "nothing pending", lender, nil,
			func(n *Node) []Effect {
				return n.HandleMessage(Message{Kind: KindToken, From: 1, To: 0, Lender: 0, Source: 1, Seq: S})
			},
			"grant(fence=0x1)",
			"father=None lender=0 asking=true loan=None"},
		{"regenerated: return grace expired", "nothing pending", lender, []func(*Node){overdue,
			func(n *Node) {
				n.HandleMessage(Message{Kind: KindEnquiryReply, From: 1, To: 0, Seq: S, Status: StatusTokenReturned})
			}},
			func(n *Node) []Effect { return fire(n, TimerTokenReturn) },
			"grant(fence=0x800000001)",
			"father=None lender=0 asking=true loan=None"},
		{"regenerated: enquiry reports the token lost", "nothing pending", lender, []func(*Node){overdue},
			func(n *Node) []Effect {
				return n.HandleMessage(Message{Kind: KindEnquiryReply, From: 1, To: 0, Seq: S, Status: StatusTokenLost})
			},
			"grant(fence=0x800000001)",
			"father=None lender=0 asking=true loan=None"},
		{"regenerated: enquiry unanswered", "nothing pending", lender, []func(*Node){overdue},
			func(n *Node) []Effect { return fire(n, TimerTokenReturn) },
			"grant(fence=0x800000001)",
			"father=None lender=0 asking=true loan=None"},
		{"regenerated: dead-loan obsolete", "nothing pending", lender, nil,
			func(n *Node) []Effect {
				return n.HandleMessage(Message{Kind: KindObsolete, From: 1, To: 0, Source: 1, Seq: S})
			},
			"grant(fence=0x800000001)",
			"father=None lender=0 asking=true loan=None"},
		{"regenerated: transfer watchdog", "own claim", transferred, []func(*Node){claim}, transferLost,
			"grant(fence=0x800000001)",
			"father=None lender=0 asking=true loan=None"},
		{"regenerated: transfer watchdog", "mandate", transferred, []func(*Node){mandate(1)}, transferLost,
			"token→1(lender=0 src=1 seq=1048576 epoch=8) timer(token-return)",
			"father=None lender=None asking=true loan=1"},
		{"regenerated: transfer watchdog", "nothing pending", transferred, nil, transferLost,
			"",
			"father=None lender=None asking=false loan=None"},
		{"regenerated: search_father exhausted", "own claim", leaf4, []func(*Node){claim, suspect}, func(n *Node) []Effect { return exhaust(t, n) },
			"grant(fence=0x400000001)",
			"father=None lender=4 asking=true loan=None"},
		{"regenerated: search_father exhausted", "mandate", leaf4, []func(*Node){mandate(5), suspect}, func(n *Node) []Effect { return exhaust(t, n) },
			"token→5(lender=4 src=5 seq=1048576 epoch=4) timer(token-return)",
			"father=None lender=None asking=true loan=5"},
		{"regenerated: search_father exhausted", "nothing pending", leaf4, []func(*Node){func(n *Node) { n.Recover() }, claim}, func(n *Node) []Effect { return exhaust(t, n) },
			"grant(fence=0x400000001)",
			"father=None lender=4 asking=true loan=None"},
	}
	inCS := func(n *Node) {
		n.HandleMessage(Message{Kind: KindToken, From: 0, To: 4, Lender: 0, Source: 4, Seq: S, Epoch: 2, Fence: 5})
	}
	crashes = []custodyCell{
		{row: "crashed", col: "lender with a loan out", node: lender},
		{row: "crashed", col: "proxy holding a mandate", node: leaf4, pending: []func(*Node){mandate(5)}},
		{row: "crashed", col: "searcher", node: leaf4, pending: []func(*Node){claim, suspect}},
		{row: "crashed", col: "in its critical section", node: leaf4, pending: []func(*Node){claim, inCS}},
		{row: "crashed", col: "transfer guardian", node: transferred},
	}
	return cells, crashes
}
