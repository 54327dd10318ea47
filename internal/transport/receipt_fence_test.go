package transport

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/ocube"
)

// nodeRig is two fault-tolerant core.Nodes of a one-dimensional cube under
// virtual time, their messages carried either by a pair of Machines or,
// for comparison, by a bare channel of the same transit time.
type nodeRig struct {
	now      time.Duration
	node     [2]*core.Node
	m        [2]*Machine // nil: bare channel
	events   []nodeEvent
	seq      int
	regens   [2][]string        // reasons of the regenerations each node reported
	grants   [2][]time.Duration // when each node was granted
	tokenAck int                // KindTokenAck messages put on the wire
}

// nodeEvent is a frame or bare message landing, a node timer firing or a
// machine deadline passing, at node to.
type nodeEvent struct {
	at    time.Duration
	n     int
	to    ocube.Pos
	frame *SessFrame
	msg   *core.Message
	timer *core.StartTimer // nil with frame and msg nil: tick the machine
}

func (r *nodeRig) after(d time.Duration, ev nodeEvent) {
	ev.at, ev.n = r.now+d, r.seq
	r.seq++
	r.events = append(r.events, ev)
}

// apply executes what node i asked for.
func (r *nodeRig) apply(i ocube.Pos, effs []core.Effect) {
	for _, e := range effs {
		switch e := e.(type) {
		case *core.Send:
			if e.Msg.Kind == core.KindTokenAck {
				r.tokenAck++
			}
			if r.m[i] == nil {
				msg := e.Msg
				r.after(rigTransit, nodeEvent{to: msg.To, msg: &msg})
				continue
			}
			r.emit(i, r.m[i].Send(r.now, e.Msg.To, []core.Envelope{{Msg: e.Msg}}, nil))
		case *core.StartTimer:
			timer := *e
			r.after(e.Delay, nodeEvent{to: i, timer: &timer})
		case *core.Grant:
			r.grants[i] = append(r.grants[i], r.now)
		}
	}
}

// emit puts machine i's frames on the link and books its deadline.
func (r *nodeRig) emit(i ocube.Pos, out []Outgoing) {
	for _, o := range out {
		f := o.Frame
		r.after(rigTransit, nodeEvent{to: o.To, frame: &f})
	}
	if at := r.m[i].deadline; at != Never {
		r.after(at-r.now, nodeEvent{to: i})
	}
}

// run steps the events in time order until none is left or the clock
// passes until.
func (r *nodeRig) run(until time.Duration) {
	for len(r.events) > 0 {
		next := 0
		for i, ev := range r.events {
			if b := r.events[next]; ev.at < b.at || ev.at == b.at && ev.n < b.n {
				next = i
			}
		}
		ev := r.events[next]
		if ev.at > until {
			return
		}
		r.events[next] = r.events[len(r.events)-1]
		r.events = r.events[:len(r.events)-1]
		r.now = ev.at
		switch {
		case ev.frame != nil:
			batch, receipts, out := r.m[ev.to].Frame(r.now, *ev.frame, nil, nil)
			r.emit(ev.to, out)
			for _, env := range receipts {
				r.apply(ev.to, r.node[ev.to].HandleMessage(env.Msg))
			}
			for _, env := range batch {
				r.apply(ev.to, r.node[ev.to].HandleMessage(env.Msg))
			}
		case ev.msg != nil:
			r.apply(ev.to, r.node[ev.to].HandleMessage(*ev.msg))
		case ev.timer != nil:
			r.apply(ev.to, r.node[ev.to].HandleTimer(ev.timer.Kind, ev.timer.Gen))
		default:
			r.emit(ev.to, r.m[ev.to].Tick(r.now, nil))
		}
	}
}

// TestFencedReceiptedTokenIsNotReminted pins what the session's receipt
// changes under EpochFence. Node 1 knows of epoch 3 and asks; node 0, the
// root, hands it a token of epoch 0 outright, which node 1 fences: it
// neither adopts nor acknowledges the survivor of a regeneration it knows
// of. Over a bare channel node 0 hears nothing, its ack watchdog fires
// and it re-mints the token at a new epoch (and again, until its epoch has
// caught up with node 1's). Over a session the frame's
// ack is the receipt: node 0 is released and regenerates nothing, the
// survivor is gone for good, and node 1's request is repaired from its
// own end — suspicion, search_father, and the token it mints as the root
// the search elects.
func TestFencedReceiptedTokenIsNotReminted(t *testing.T) {
	const delta = 10 * time.Millisecond
	for _, sessions := range []bool{true, false} {
		r := &nodeRig{}
		rng := rand.New(noJitter{})
		for i := range r.node {
			node, err := core.NewNode(core.Config{
				Self: ocube.Pos(i), P: 1, FT: true, EpochFence: true,
				Delta: delta, CSEstimate: delta, SuspicionSlack: delta,
				Observe: func(ev core.TokenEvent) {
					if ev.Kind == core.TokenEvRegenerated {
						r.regens[i] = append(r.regens[i], ev.Reason)
					}
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			r.node[i] = node
			if sessions {
				// RTO/4 = δ, the whole of the slack: the receipt's budget.
				r.m[i] = NewMachine(ocube.Pos(i), SessionConfig{RTO: 4 * delta}, rng)
			}
		}
		// Node 1 learns of epoch 3 from a stray loan it has no use for.
		r.apply(1, r.node[1].HandleMessage(core.Message{Kind: core.KindToken, From: 0, To: 1, Lender: 0, Epoch: 3}))
		effs, err := r.node[1].RequestCS()
		if err != nil {
			t.Fatal(err)
		}
		r.apply(1, effs)
		r.run(time.Second)

		// suspicionDelay = 2·P·δ + slack.
		if g := r.grants[1]; len(g) != 1 || g[0] < 3*delta {
			t.Errorf("sessions=%v: node 1 granted at %v, want once, after its suspicion delay of %v", sessions, g, 3*delta)
		}
		if sessions {
			if len(r.regens[0]) != 0 {
				t.Errorf("over sessions the sender regenerated: %q", r.regens[0])
			}
			if len(r.regens[1]) != 1 {
				t.Errorf("over sessions node 1 regenerated %q, want once, as the root its search elected", r.regens[1])
			}
			if st := r.m[0].Stats(); st.Receipts != 1 || r.tokenAck != 0 {
				t.Errorf("over sessions: %d receipts at the sender, %d token-acks on the wire; want 1 and 0", st.Receipts, r.tokenAck)
			}
		} else if len(r.regens[0]) == 0 {
			t.Error("over a bare channel the sender regenerated nothing, want the unacknowledged survivor re-minted")
		}
	}
}
