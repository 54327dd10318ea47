package core

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/ocube"
)

// restartState renders everything a transition reads: the node's fields,
// with the queue, the track table and the search sets by content rather
// than storage. The host pointer and the timer generations are left out —
// a generation is only ever compared with a fire's own.
func restartState(n *Node) string {
	c := *n
	queue := make([]queued, n.q.n)
	for i := range queue {
		queue[i] = *n.q.at(i)
	}
	c.h, c.gens, c.q, c.track = nil, [len(c.gens)]uint64{}, waitQueue{}, nil
	c.search.outstanding, c.search.deferred, c.search.absorbed = nil, nil, nil
	return fmt.Sprintf("%+v queue=%+v track=%+v search=%v/%v/%v", c, queue, []reqTrack(n.track),
		n.search.outstanding, n.search.deferred, n.search.absorbed)
}

// restartEffects renders effects in full but for StartTimer.Gen: a fresh
// node's generations start over where an in-place one's move on.
func restartEffects(effs []Effect) string {
	var b strings.Builder
	for _, e := range effs {
		switch e := e.(type) {
		case *Send:
			fmt.Fprintf(&b, "send%+v ", e.Msg)
		case *Grant:
			fmt.Fprintf(&b, "grant%+v ", *e)
		case *StartTimer:
			fmt.Fprintf(&b, "timer(%v %v) ", e.Kind, e.Delay)
		}
	}
	return b.String()
}

// TestRecoverIsRestart pins Section 5's recovery as one thing: a node
// recovered in place (the simulator's crash) and a fresh node given the
// crashed one's Stable and then recovered (a live restart) are the same
// node — equal state, equal effects from Recover, and equal effects and
// state after every input of a rejoin that adopts a father, is lent the
// token, is enquired about it, queues a request and releases. The crash
// points are every custody entry (a fresh root in each shape) and a
// lender, a proxy, a searcher, a node in its critical section and a
// transfer guardian.
func TestRecoverIsRestart(t *testing.T) {
	cells, crashes := custodyCells(t)
	for _, c := range append(cells, crashes...) {
		t.Run(c.row+"/"+c.col, func(t *testing.T) {
			crashed := c.node(t)
			for _, step := range c.pending {
				step(crashed)
			}
			if c.entry != nil {
				c.entry(crashed)
			}
			was := crashed.Stable()
			restarted, err := NewNode(crashed.h.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := restarted.RestoreStable(was); err != nil {
				t.Fatal(err)
			}
			x := crashed.Self()
			near, far := ocube.AtDist(x, 1)[0], ocube.AtDist(x, 2)[0]
			inputs := []struct {
				name string
				in   func(*Node) []Effect
			}{
				{"recover", func(n *Node) []Effect { return n.Recover() }},
				{"probed by a searcher", func(n *Node) []Effect {
					return n.HandleMessage(Message{Kind: KindTest, From: near, To: x, Phase: 1, Gen: 1})
				}},
				{"phase 1 silent", func(n *Node) []Effect { return fire(n, TimerSuspicion) }},
				{"adopt", func(n *Node) []Effect {
					return n.HandleMessage(Message{Kind: KindTestReply, From: far, To: x, Phase: 2,
						Gen: n.Stable().RepairGen, Reply: ReplyOK})
				}},
				{"request", func(n *Node) []Effect { effs, _ := n.RequestCS(); return effs }},
				{"lent the token", func(n *Node) []Effect {
					s := n.Stable()
					return n.HandleMessage(Message{Kind: KindToken, From: far, To: x, Lender: far,
						Source: x, Seq: s.Seq, Epoch: s.Epoch, Fence: 3})
				}},
				{"enquired", func(n *Node) []Effect {
					return n.HandleMessage(Message{Kind: KindEnquiry, From: far, To: x, Seq: n.Stable().Seq})
				}},
				{"queue a request", func(n *Node) []Effect {
					return n.HandleMessage(Message{Kind: KindRequest, From: near, To: x, Target: near, Source: near, Seq: 9 * seqStride})
				}},
				{"release", func(n *Node) []Effect { effs, _ := n.ReleaseCS(); return effs }},
			}
			for _, in := range inputs {
				a, b := restartEffects(in.in(crashed)), restartEffects(in.in(restarted))
				if a != b {
					t.Fatalf("%s: effects differ\n in place %s\n restart  %s", in.name, a, b)
				}
				if a, b := restartState(crashed), restartState(restarted); a != b {
					t.Fatalf("%s: state differs\n in place %s\n restart  %s", in.name, a, b)
				}
				if in.name == "recover" {
					if want := (Stable{Seq: was.Seq, Epoch: was.Epoch, RepairGen: was.RepairGen + 1}); crashed.Stable() != want {
						t.Fatalf("recovery kept stable %+v of %+v, want %+v", crashed.Stable(), was, want)
					}
				}
				if in.name == "lent the token" && !crashed.InCS() {
					t.Fatal("the rejoin never reached the critical section")
				}
			}
		})
	}
}
