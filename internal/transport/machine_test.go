package transport

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/ocube"
)

// Machine tests: the session discipline under virtual time, no goroutine,
// no sleep. Two machines are stepped against each other over a scripted
// link that loses, delays and thereby reorders frames by their index, the
// way both drivers step them: a frame arrives, a deadline passes, the
// application sends. What only a driver can get wrong — ingress that waits
// for the app, an ack path blocked by delivery, a killed TCP connection —
// stays with the live suites (eachIngress, sess_tcp_kill_test.go).

const (
	rigTransit = time.Millisecond
	rigRTO     = 40 * time.Millisecond // so owed acks wait 10ms
)

// flight is one frame on the rig's link.
type flight struct {
	at time.Duration // arrival
	n  int           // index among all frames sent: ties arrive in that order
	to ocube.Pos
	f  SessFrame
}

// sentFrame is one frame a machine put on the link, lost or not.
type sentFrame struct {
	at time.Duration
	to ocube.Pos
	SessFrame
}

// machRig is two machines, nodes 0 and 1, and the link between them.
type machRig struct {
	t    *testing.T
	span uint64 // each machine's sendSpan
	rng  *rand.Rand
	now  time.Duration
	m    [2]*Machine
	air  []flight
	// fate scripts the link: the transit time of frame n (counting every
	// frame sent, from 0), negative to lose it. Nil carries everything in
	// rigTransit.
	fate func(n int, to ocube.Pos, f SessFrame) time.Duration
	sent []sentFrame
	got  [2][]uint64 // Instance tags delivered to each node, in order
	// rcpt is every receipt handed to each node, in order; handed lists
	// each node's deliveries and receipts together, a receipt as the
	// Instance of the token it answers with receiptBit set.
	rcpt   [2][]core.Envelope
	handed [2][]uint64
}

const receiptBit = 1 << 63

// noJitter is a rand.Source that draws 0 every time: a machine built on
// it adds no jitter, so every timeout falls where a test can name it.
type noJitter struct{}

func (noJitter) Int63() int64 { return 0 }
func (noJitter) Seed(int64)   {}

// newMachRig builds the pair. span, if not 0, lowers the window each
// machine sends within, so a few batches reach the backlog.
func newMachRig(t *testing.T, span uint64) *machRig {
	r := &machRig{t: t, span: span, rng: rand.New(noJitter{})}
	r.reboot(0, 1)
	r.reboot(1, 1)
	return r
}

// reboot replaces node i's machine with a fresh one of the given boot:
// the crash that takes the session state with it.
func (r *machRig) reboot(i ocube.Pos, boot uint64) {
	r.m[i] = NewMachine(i, SessionConfig{RTO: rigRTO, Boot: boot}, r.rng)
	if r.span != 0 {
		r.m[i].sendSpan = r.span
	}
}

func tagged(tag uint64) []core.Envelope { return []core.Envelope{{Instance: tag}} }

// send hands node from's machine one batch for the other node.
func (r *machRig) send(from ocube.Pos, tag uint64) {
	r.emit(r.m[from].Send(r.now, 1-from, tagged(tag), nil))
}

// inject puts f on the link as it is: a copy the network made, a
// straggler, a forgery.
func (r *machRig) inject(to ocube.Pos, f SessFrame) {
	r.emit([]Outgoing{{to, f}})
}

func (r *machRig) emit(out []Outgoing) {
	for _, o := range out {
		n := len(r.sent)
		r.sent = append(r.sent, sentFrame{r.now, o.To, o.Frame})
		d := rigTransit
		if r.fate != nil {
			d = r.fate(n, o.To, o.Frame)
		}
		if d >= 0 {
			r.air = append(r.air, flight{r.now + d, n, o.To, o.Frame})
		}
	}
	r.check()
}

// check holds after every step: nothing is counted twice or lost from the
// books, no peer's frames in flight span more than the window, and every
// receiver has absorbed its in-order run into recvHigh.
func (r *machRig) check() {
	r.t.Helper()
	for i, m := range r.m {
		booked := 0
		for _, p := range m.peers {
			if p == nil {
				continue
			}
			if n := len(p.inflight); n > 0 && p.inflight[n-1].seq-p.inflight[0].seq >= m.sendSpan {
				r.t.Fatalf("node %d has Seq %d to %d in flight to %v, window %d", i, p.inflight[0].seq, p.inflight[n-1].seq, p.pos, m.sendSpan)
			}
			for j := 1; j < len(p.inflight); j++ {
				if p.inflight[j-1].seq >= p.inflight[j].seq {
					r.t.Fatalf("node %d: in-flight frames out of Seq order: %d before %d", i, p.inflight[j-1].seq, p.inflight[j].seq)
				}
			}
			if len(p.backlog) > 0 && m.room(p) {
				r.t.Fatalf("node %d holds %d batches back with room in the window", i, len(p.backlog))
			}
			if p.recvMask&1 != 0 {
				r.t.Fatalf("node %d: Seq %d from %v delivered and not absorbed into recvHigh %d", i, p.recvHigh+1, p.pos, p.recvHigh)
			}
			booked += len(p.inflight) + len(p.backlog)
		}
		if m.Unacked() < 0 || m.Unacked() != booked {
			r.t.Fatalf("node %d: Unacked() = %d, its peers hold %d", i, m.Unacked(), booked)
		}
	}
}

// run steps arrivals and deadlines in time order up to until, then sets
// the clock there.
func (r *machRig) run(until time.Duration) {
	r.t.Helper()
	for steps := 0; ; steps++ {
		if steps > 100000 {
			r.t.Fatal("the rig does not come to rest")
		}
		next, who := until+1, -1 // who: 0 or 1 ticks that node, 2 lands a frame
		for i, m := range r.m {
			if at := m.Deadline(); at < next {
				next, who = at, i
			}
		}
		land := -1
		for i, fl := range r.air {
			// At one instant frames land first, in the order they were sent.
			if fl.at < next || fl.at == next && who >= 0 && (who != 2 || fl.n < r.air[land].n) {
				next, who, land = fl.at, 2, i
			}
		}
		if who < 0 {
			r.now = max(r.now, until)
			return
		}
		r.now = max(r.now, next)
		if who < 2 {
			r.emit(r.m[who].Tick(r.now, nil))
			continue
		}
		fl := r.air[land]
		r.air = slices.Delete(r.air, land, land+1)
		batch, receipts, out := r.m[fl.to].Frame(r.now, fl.f, nil, nil)
		for _, env := range receipts {
			if want := (core.Message{Kind: core.KindTokenAck, From: fl.f.From, To: fl.to, Seq: env.Msg.Seq}); env.Msg != want {
				r.t.Fatalf("node %d was handed receipt %+v, want %+v", fl.to, env.Msg, want)
			}
			r.rcpt[fl.to] = append(r.rcpt[fl.to], env)
			r.handed[fl.to] = append(r.handed[fl.to], env.Instance|receiptBit)
		}
		for _, env := range batch {
			r.got[fl.to] = append(r.got[fl.to], env.Instance)
			r.handed[fl.to] = append(r.handed[fl.to], env.Instance)
		}
		r.emit(out)
	}
}

// rest runs until nothing is in the air and no machine waits for anything.
func (r *machRig) rest() {
	r.t.Helper()
	r.run(r.now + time.Hour)
	for i, m := range r.m {
		if at := m.Deadline(); at != Never {
			r.t.Fatalf("node %d still has a deadline at %v an hour on", i, at)
		}
	}
}

// pureAcks returns the pure ack frames sent to node to.
func (r *machRig) pureAcks(to ocube.Pos) (acks []sentFrame) {
	for _, s := range r.sent {
		if s.to == to && s.Seq == 0 && (s.Ack != 0 || s.AckMask != 0) {
			acks = append(acks, s)
		}
	}
	return acks
}

func wantTags(t *testing.T, what string, got []uint64, want ...uint64) {
	t.Helper()
	if !slices.Equal(got, want) {
		t.Errorf("%s: delivered %v, want %v", what, got, want)
	}
}

func TestMachine(t *testing.T) {
	for _, tc := range []struct {
		name string
		span uint64 // 0: the window
		run  func(t *testing.T, r *machRig)
	}{
		{"exactly once under loss", 0, func(t *testing.T, r *machRig) {
			data := 0
			r.fate = func(_ int, _ ocube.Pos, f SessFrame) time.Duration {
				if f.Seq != 0 {
					if data++; data%3 == 0 {
						return -1
					}
				}
				return rigTransit
			}
			const n = 20
			for i := uint64(1); i <= n; i++ {
				r.send(0, i)
			}
			r.rest()
			got := slices.Clone(r.got[1])
			slices.Sort(got)
			for i, tag := range got {
				if tag != uint64(i+1) {
					t.Fatalf("delivered %v, want each of 1..%d once", r.got[1], n)
				}
			}
			if st := r.m[0].Stats(); len(got) != n || st.Frames != n || st.Retransmits == 0 || st.Retransmits != st.AckTimeouts {
				t.Errorf("%d delivered, stats %+v: want %d frames repaired by retransmission", len(got), st, n)
			}
			if r.m[0].Unacked() != 0 {
				t.Errorf("%d batches still unacknowledged at rest", r.m[0].Unacked())
			}
		}},
		{"lost piggyback costs one retransmit", 0, func(t *testing.T, r *machRig) {
			dropped := false
			r.fate = func(_ int, to ocube.Pos, f SessFrame) time.Duration {
				if to == 0 && f.Seq != 0 && f.Ack != 0 && !dropped {
					dropped = true
					return -1
				}
				return rigTransit
			}
			r.send(0, 1)
			r.run(2 * rigTransit)
			r.send(1, 2) // the reply carries the request's ack, and is lost
			r.rest()
			wantTags(t, "node 1", r.got[1], 1)
			wantTags(t, "node 0", r.got[0], 2)
			a, b := r.m[0].Stats(), r.m[1].Stats()
			if !dropped || a.Retransmits != 1 || b.DupDrops != 1 || b.AckFrames != 1 || b.Retransmits != 1 {
				t.Errorf("dropped=%v a=%+v b=%+v: want one retransmission each way, one dup-drop and its one immediate re-ack", dropped, a, b)
			}
		}},
		{"a lost pure ack is repaired by the next window", 0, func(t *testing.T, r *machRig) {
			lost := false
			r.fate = func(_ int, to ocube.Pos, f SessFrame) time.Duration {
				if to == 0 && f.Seq == 0 && !lost {
					lost = true
					return -1
				}
				return rigTransit
			}
			r.send(0, 1)
			r.run(rigTransit + rigRTO/4) // seq 1's pure ack has left, and is lost
			r.send(0, 2)                 // before seq 1's retransmission timeout
			r.rest()
			wantTags(t, "node 1", r.got[1], 1, 2)
			if a, b := r.m[0].Stats(), r.m[1].Stats(); !lost || a.Retransmits != 0 || b.DupDrops != 0 {
				t.Errorf("lost=%v sender %+v receiver %+v: want the ack of seq 2 to retire seq 1 too", lost, a, b)
			}
		}},
		{"a lone owed ack leaves after RTO/4", 0, func(t *testing.T, r *machRig) {
			r.send(0, 1)
			r.rest()
			acks := r.pureAcks(0)
			if len(acks) != 1 || acks[0].at != rigTransit+rigRTO/4 || acks[0].Ack != 1 || acks[0].AckMask != 0 {
				t.Errorf("pure acks %+v, want one for seq 1 at %v", acks, rigTransit+rigRTO/4)
			}
			if st := r.m[0].Stats(); st.Retransmits != 0 {
				t.Errorf("the ack delay cost a retransmission: %+v", st)
			}
		}},
		{"Window/4 owed acks leave at once", 0, func(t *testing.T, r *machRig) {
			for i := uint64(1); i <= 2*ackEvery; i++ {
				r.send(0, i)
			}
			r.rest()
			acks := r.pureAcks(0)
			if len(acks) != 2 || acks[0].at != rigTransit || acks[1].at != rigTransit ||
				acks[0].Ack != ackEvery || acks[0].AckMask != 0 || acks[1].Ack != 2*ackEvery || acks[1].AckMask != 0 {
				t.Errorf("pure acks %+v, want windows up to %d and up to %d on arrival at %v", acks, ackEvery, 2*ackEvery, rigTransit)
			}
		}},
		{"a gap waits, a duplicate is acked at once", 0, func(t *testing.T, r *machRig) {
			r.fate = func(n int, _ ocube.Pos, _ SessFrame) time.Duration {
				if n == 1 {
					return 3 * rigTransit // seq 2 arrives after seq 3
				}
				return rigTransit
			}
			r.send(0, 1)
			r.send(0, 2)
			r.send(0, 3)
			r.run(rigTransit)
			acks := r.pureAcks(0)
			if len(acks) != 0 {
				t.Fatalf("after the gap: pure acks %+v, want none before the ack delay", acks)
			}
			r.inject(1, r.sent[0].SessFrame) // the network repeats seq 1
			r.run(2 * rigTransit)
			if acks = r.pureAcks(0); len(acks) != 1 || acks[0].Ack != 1 || acks[0].AckMask != 0b10 || acks[0].at != 2*rigTransit {
				t.Fatalf("after the duplicate: pure acks %+v, want the window, seq 1 and seq 3, on arrival", acks)
			}
			r.rest()
			if acks = r.pureAcks(0); len(acks) != 2 || acks[1].Ack != 3 || acks[1].AckMask != 0 || acks[1].at != 3*rigTransit+rigRTO/4 {
				t.Fatalf("after the fill: pure acks %+v, want the window up to 3 an ack delay after seq 2 arrives", acks)
			}
			wantTags(t, "node 1", r.got[1], 1, 3, 2)
			if st := r.m[1].Stats(); st.DupDrops != 1 || r.m[0].Stats().Retransmits != 0 {
				t.Errorf("receiver %+v sender %+v: want one dup-drop, no retransmission", st, r.m[0].Stats())
			}
		}},
		{"a late frame holds the window for no ack delay", 0, func(t *testing.T, r *machRig) {
			// Every 13th frame takes 3 ms more than the rest, so a window's
			// oldest frame keeps arriving after frames parked above it,
			// which an earlier window may have acknowledged already.
			r.fate = func(n int, _ ocube.Pos, f SessFrame) time.Duration {
				if f.Seq != 0 && n%13 == 0 {
					return 4 * rigTransit
				}
				return rigTransit
			}
			const n = 10 * window
			for i := uint64(1); i <= n; i++ {
				r.send(0, i)
			}
			for len(r.got[1]) < n {
				r.run(r.now + rigTransit/10)
			}
			// Ten windows of a round trip, 2 ms, and a late frame, 3 ms
			// more, and one ack delay (10 ms) in all: one per window would
			// take twice that.
			if limit := n/window*5*rigTransit + rigRTO/4; r.now > limit {
				t.Errorf("%d batches delivered at %v, want by %v", n, r.now, limit)
			}
		}},
		{"rebirth resets dedup and voids owed acks", 0, func(t *testing.T, r *machRig) {
			for i := uint64(1); i <= 3; i++ {
				r.send(0, i)
			}
			r.run(rigTransit) // delivered, three acks owed, none sent yet
			r.reboot(0, 2)
			r.send(0, 10) // seq 1 again, of boot 2
			r.run(2 * rigTransit)
			wantTags(t, "node 1", r.got[1], 1, 2, 3, 10)
			r.send(1, 20)
			r.rest()
			wantTags(t, "node 0", r.got[0], 20)
			acking := 0
			for _, s := range r.sent {
				if s.to == 0 && (s.Ack != 0 || s.AckMask != 0) {
					acking++
					if s.ToBoot != 2 || s.Ack != 1 || s.AckMask != 0 {
						t.Errorf("node 1 acknowledged %+v, want only seq 1 of boot 2", s.SessFrame)
					}
				}
			}
			if acking != 1 {
				t.Errorf("node 1 sent %d acknowledging frames, want 1", acking)
			}
			// A straggler of the dead incarnation is dropped, not acked.
			before := len(r.sent)
			r.inject(1, SessFrame{From: 0, Boot: 1, Seq: 99, Batch: tagged(99)})
			r.rest()
			if st := r.m[1].Stats(); st.StaleBootDrops != 1 || len(r.sent) != before+1 || len(r.got[1]) != 4 {
				t.Errorf("boot-1 straggler: stats %+v, %d frames in answer, delivered %v", st, len(r.sent)-before-1, r.got[1])
			}
		}},
		{"previous-life frames are refused", 0, func(t *testing.T, r *machRig) {
			r.send(1, 1) // node 0 learns which incarnation of node 1 it addresses
			r.rest()
			cut := true
			r.fate = func(_ int, to ocube.Pos, _ SessFrame) time.Duration {
				if cut && to == 0 {
					return -1
				}
				return rigTransit
			}
			r.send(0, 2)
			r.run(r.now + 2*rigTransit)
			wantTags(t, "node 1, first life", r.got[1], 2)
			r.reboot(1, 2) // dies with the ack undelivered
			cut = false
			r.rest()
			if st := r.m[1].Stats(); st.StaleBootDrops == 0 {
				t.Errorf("the retransmission never reached the second life: %+v", st)
			}
			if r.m[0].Unacked() != 0 {
				t.Errorf("node 0 still holds %d batches for the dead incarnation", r.m[0].Unacked())
			}
			r.send(0, 3)
			r.rest()
			wantTags(t, "node 1, both lives", r.got[1], 2, 3)
		}},
		{"backlog drains in order", 2, func(t *testing.T, r *machRig) {
			const heal = 200 * time.Millisecond
			r.fate = func(_ int, _ ocube.Pos, f SessFrame) time.Duration {
				if f.Seq != 0 && r.now < heal {
					return -1
				}
				return rigTransit
			}
			for i := uint64(1); i <= 5; i++ {
				r.send(0, i)
			}
			if r.m[0].Unacked() != 5 {
				t.Fatalf("Unacked() = %d with five batches accepted", r.m[0].Unacked())
			}
			r.run(heal - 1)
			for _, s := range r.sent {
				if s.Seq > 2 {
					t.Fatalf("the link saw Seq %d with a window of 2 and nothing acknowledged", s.Seq)
				}
			}
			r.rest()
			wantTags(t, "node 1", r.got[1], 1, 2, 3, 4, 5)
			for _, s := range r.sent {
				if s.Seq != 0 && s.Batch[0].Instance != s.Seq {
					t.Errorf("batch %d travelled as Seq %d: the backlog is not first in first out", s.Batch[0].Instance, s.Seq)
				}
			}
			if st := r.m[0].Stats(); st.Frames != 5 {
				t.Errorf("Frames = %d, want 5", st.Frames)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) { tc.run(t, newMachRig(t, tc.span)) })
	}
}

// TestMachineFirstFrameToRebornPeerIsRefused pins a finding, not a fix.
// A knows B at boot 1; B restarts and comes back at boot 2 without a
// word; the next frame A sends B — a first transmission, days later for
// all the rule cares — addresses boot 1, so B refuses it and answers with
// a bare frame, and A, learning of the rebirth from that answer, abandons
// the frame with everything else it had in flight to the dead
// incarnation. The payload reached neither life: across a restart the
// session is at-most-once, not exactly-once. The rule exists because a
// frame addressed to a previous life may be a retransmission of one that
// life consumed (TestSessionPreviousLifeFramesNotRedelivered), and a
// receiver cannot tell the two apart; a first transmission cannot have
// reached anyone before, which the sender knows and does not say. Live,
// §5 rejoin and §7 recovery repair the loss. Wired into the simulator's
// crash (new boot per recovery) it costs sim-faulty its single token —
// see ROADMAP, Known protocol notes — so whoever gives the sim driver
// that crash revisits this contract first.
func TestMachineFirstFrameToRebornPeerIsRefused(t *testing.T) {
	r := newMachRig(t, 0)
	r.send(1, 1) // A = node 0 hears from B = node 1 at boot 1
	r.rest()
	r.reboot(1, 2)

	r.send(0, 7)
	sent := r.sent[len(r.sent)-1]
	if sent.Seq == 0 || sent.ToBoot != 1 {
		t.Fatalf("A sent %+v, want a data frame addressed to boot 1", sent.SessFrame)
	}
	r.rest()
	answer := r.sent[len(r.sent)-1]
	if answer.to != 0 || answer.Seq != 0 || answer.Ack != 0 || answer.Boot != 2 {
		t.Errorf("B answered %+v, want a bare frame of boot 2", answer.SessFrame)
	}
	a, b := r.m[0].Stats(), r.m[1].Stats()
	if b.StaleBootDrops != 1 || len(r.got[1]) != 0 {
		t.Errorf("B: %+v, delivered %v: want the frame refused", b, r.got[1])
	}
	if r.m[0].Unacked() != 0 || a.Retransmits != 0 {
		t.Errorf("A: %d unacknowledged, %+v: want the frame abandoned, never re-sent", r.m[0].Unacked(), a)
	}

	r.send(0, 8) // now addressed to boot 2
	r.rest()
	wantTags(t, "B's second life", r.got[1], 8)
}

// TestRebornPeerWindowAdvances: a survivor that went on numbering toward
// a restarted peer from where the dead incarnation left off would send
// hundreds of sequence numbers above a successor whose window starts at
// 1. Learning of the rebirth restarts the survivor's sequence too, so the
// successor delivers in order, its recvHigh advances, and nothing waits
// in its mask.
func TestRebornPeerWindowAdvances(t *testing.T) {
	r := newMachRig(t, 0)
	for tag := uint64(1); tag <= 300; tag++ {
		r.send(0, tag)
		r.send(1, tag)
		r.run(r.now + rigTransit)
	}
	r.rest()
	r.reboot(1, 2)
	r.send(1, 301) // the successor speaks first
	r.rest()
	wantTags(t, "the survivor", r.got[0][300:], 301)

	want := slices.Clone(r.got[1])
	for tag := uint64(1001); tag <= 2000; tag++ {
		r.send(0, tag)
		want = append(want, tag)
	}
	r.rest()
	wantTags(t, "both lives of the peer", r.got[1], want...)
	if p := r.m[1].peers[0]; p.recvHigh != 1000 || p.recvMask != 0 {
		t.Errorf("the successor's window toward the survivor: recvHigh %d, mask %#x; want 1000 and nothing parked", p.recvHigh, p.recvMask)
	}
	if st := r.m[1].Stats(); st.StaleBootDrops != 0 || st.DupDrops != 0 {
		t.Errorf("the successor dropped frames: %+v", st)
	}
}

// token returns one KindToken envelope of instance tag from node from to
// the other node: unlent when lender is ocube.None, else a loan.
func token(from ocube.Pos, tag uint64, lender ocube.Pos) core.Envelope {
	return core.Envelope{Instance: tag, Msg: core.Message{
		Kind: core.KindToken, From: from, To: 1 - from, Lender: lender, Source: 1 - from, Seq: tag << 20}}
}

// sendEnvs hands node from's machine one batch of envs for the other node.
func (r *machRig) sendEnvs(from ocube.Pos, envs ...core.Envelope) {
	r.emit(r.m[from].Send(r.now, 1-from, envs, nil))
}

// wantReceipts checks the receipts node i was handed so far: one for each
// of the given token instances, in that order, each naming its token's Seq.
func (r *machRig) wantReceipts(what string, i ocube.Pos, tags ...uint64) {
	r.t.Helper()
	var got []uint64
	for _, env := range r.rcpt[i] {
		got = append(got, env.Instance)
		if env.Msg.Seq != env.Instance<<20 {
			r.t.Errorf("%s: receipt for instance %d carries Seq %d, its token's was %d", what, env.Instance, env.Msg.Seq, env.Instance<<20)
		}
	}
	if !slices.Equal(got, tags) {
		r.t.Errorf("%s: node %d was handed receipts for %v, want %v", what, i, got, tags)
	}
	if n := r.m[i].Stats().Receipts; n != int64(len(got)) {
		r.t.Errorf("%s: node %d counts %d receipts, handed %d", what, i, n, len(got))
	}
}

// TestMachineReceipts pins the machine's fourth output: the ack that
// retires a frame hands the sender one KindTokenAck per unlent token the
// frame carried, once, whatever the link did to the frame and its ack —
// and a frame no ack for this incarnation ever names yields none.
func TestMachineReceipts(t *testing.T) {
	for _, tc := range []struct {
		name string
		span uint64 // 0: the window
		run  func(t *testing.T, r *machRig)
	}{
		{"a lost ack still yields one receipt", 0, func(t *testing.T, r *machRig) {
			lost := false
			r.fate = func(_ int, to ocube.Pos, f SessFrame) time.Duration {
				if to == 0 && f.Ack != 0 && !lost {
					lost = true
					return -1
				}
				return rigTransit
			}
			r.sendEnvs(0, token(0, 5, ocube.None))
			r.rest()
			wantTags(t, "node 1", r.got[1], 5)
			r.wantReceipts("after the re-ack", 0, 5)
			if a, b := r.m[0].Stats(), r.m[1].Stats(); !lost || a.Retransmits != 1 || b.DupDrops != 1 {
				t.Errorf("lost=%v sender %+v receiver %+v: want the ack lost, one retransmission, one duplicate", lost, a, b)
			}
			// The network repeats the ack that got through: the frame is gone.
			acks := r.pureAcks(0)
			r.inject(0, acks[len(acks)-1].SessFrame)
			r.rest()
			r.wantReceipts("after the repeated ack", 0, 5)
		}},
		{"reordered acks", 0, func(t *testing.T, r *machRig) {
			first := true
			r.fate = func(_ int, to ocube.Pos, f SessFrame) time.Duration {
				if to == 0 && f.Ack != 0 && first {
					first = false
					return 20 * rigTransit // overtaken by the next ack
				}
				return rigTransit
			}
			r.sendEnvs(0, token(0, 1, ocube.None))
			r.run(rigTransit + rigRTO/4 + rigTransit) // its ack has left, alone
			r.sendEnvs(0, token(0, 2, ocube.None))
			r.rest()
			r.wantReceipts("at rest", 0, 1, 2) // the overtaking window names both
			if st := r.m[0].Stats(); st.Retransmits != 0 {
				t.Errorf("sender %+v: the slow ack cost a retransmission", st)
			}
		}},
		{"one window ack, several frames", 0, func(t *testing.T, r *machRig) {
			r.sendEnvs(0, token(0, 1, ocube.None))
			r.sendEnvs(0, tagged(2)...)
			r.sendEnvs(0, token(0, 3, ocube.None))
			r.rest()
			acks := r.pureAcks(0)
			if len(acks) != 1 || acks[0].Ack != 3 || acks[0].AckMask != 0 {
				t.Fatalf("pure acks %+v, want one window up to 3", acks)
			}
			r.wantReceipts("at rest", 0, 1, 3)
		}},
		{"two tokens in one batch of four, written behind it", 0, func(t *testing.T, r *machRig) {
			batch := make([]core.Envelope, 4, 6) // what Session.SendBatch leaves: room for two receipts
			copy(batch, []core.Envelope{tagged(1)[0], token(0, 2, ocube.None), token(0, 3, 0), token(0, 4, ocube.None)})
			sent := slices.Clone(batch)
			r.sendEnvs(0, batch...)
			if f := r.sent[0]; cap(f.Batch) != len(f.Batch) {
				t.Errorf("the frame's batch has capacity %d past its %d envelopes: a receiver could reach the receipts' room", cap(f.Batch)-len(f.Batch), len(f.Batch))
			}
			r.rest()
			r.wantReceipts("at rest", 0, 2, 4)
			if !slices.Equal(batch[4:6], r.rcpt[0]) {
				t.Errorf("behind the batch: %v, want the receipts %v written there", batch[4:6], r.rcpt[0])
			}
			for i := range sent {
				sent[i].Msg.Receipted = Receiptable(sent[i].Msg)
			}
			if !slices.Equal(batch[:4], sent) {
				t.Errorf("the retired batch was rewritten:\n got %v\nwant %v", batch, sent)
			}
			wantTags(t, "node 1", r.got[1], 1, 2, 3, 4)
		}},
		{"only unlent tokens are receipted", 0, func(t *testing.T, r *machRig) {
			r.sendEnvs(0, token(0, 1, 0), token(0, 2, 1))
			for k := core.KindRequest; k <= core.KindTokenAck; k++ {
				if k != core.KindToken {
					r.sendEnvs(0, core.Envelope{Instance: 10 + uint64(k), Msg: core.Message{Kind: k, From: 0, To: 1, Lender: ocube.None}})
				}
			}
			r.rest()
			r.wantReceipts("at rest", 0)
			for _, s := range r.sent {
				for _, env := range s.Batch {
					if env.Msg.Receipted {
						t.Errorf("%v travelled marked Receipted", env)
					}
				}
			}
			if r.m[0].Unacked() != 0 || len(r.got[1]) != 10 {
				t.Errorf("%d unacknowledged, delivered %v", r.m[0].Unacked(), r.got[1])
			}
		}},
		{"none once the peer is reborn", 0, func(t *testing.T, r *machRig) {
			r.send(1, 1) // node 0 learns which incarnation of node 1 it addresses
			r.rest()
			cut := true
			r.fate = func(_ int, to ocube.Pos, _ SessFrame) time.Duration {
				if cut && to == 0 {
					return -1
				}
				return rigTransit
			}
			r.sendEnvs(0, token(0, 7, ocube.None))
			r.run(r.now + 2*rigTransit)
			wantTags(t, "node 1, first life", r.got[1], 7)
			r.reboot(1, 2) // dies with the token and the ack it owed
			cut = false
			r.rest()
			r.wantReceipts("after the rebirth", 0)
			if r.m[0].Unacked() != 0 {
				t.Errorf("node 0 still holds %d batches for the dead incarnation", r.m[0].Unacked())
			}
			// An ack of the second life for the first life's sequence number
			// finds nothing in flight.
			r.inject(0, SessFrame{From: 1, Boot: 2, ToBoot: 1, Ack: 1})
			r.rest()
			r.wantReceipts("after a late ack", 0)
		}},
		{"none from an ack for another incarnation of this node", 0, func(t *testing.T, r *machRig) {
			r.fate = func(_ int, to ocube.Pos, f SessFrame) time.Duration {
				if to == 0 && r.now < rigRTO/2 {
					return -1
				}
				return rigTransit
			}
			r.sendEnvs(0, token(0, 7, ocube.None))
			r.run(2 * rigTransit)
			r.inject(0, SessFrame{From: 1, Boot: 1, ToBoot: 9, Ack: 1})
			r.run(4 * rigTransit)
			r.wantReceipts("after the misaddressed ack", 0)
			if r.m[0].Unacked() != 1 {
				t.Fatalf("Unacked() = %d: the misaddressed ack retired the frame", r.m[0].Unacked())
			}
			r.rest() // the retransmission is acked at once, to boot 1
			r.wantReceipts("at rest", 0, 7)
		}},
		{"none for a batch still in the backlog", 2, func(t *testing.T, r *machRig) {
			r.fate = func(_ int, _ ocube.Pos, f SessFrame) time.Duration {
				if f.Seq != 0 && f.Seq <= 2 && r.now == 0 {
					return -1 // the two first transmissions
				}
				return rigTransit
			}
			for tag := uint64(1); tag <= 3; tag++ {
				r.sendEnvs(0, token(0, tag, ocube.None))
			}
			// An ack naming all three sequence numbers, the third not yet
			// given to any frame.
			r.inject(0, SessFrame{From: 1, Boot: 1, ToBoot: 1, Ack: 3})
			r.run(rigTransit)
			r.wantReceipts("after the wide ack", 0, 1, 2)
			if r.m[0].Unacked() != 1 {
				t.Fatalf("Unacked() = %d, want the backlogged batch alone", r.m[0].Unacked())
			}
			r.rest()
			r.wantReceipts("at rest", 0, 1, 2, 3)
			wantTags(t, "node 1", r.got[1], 3)
		}},
		{"receipts go ahead of the frame's own payload", 0, func(t *testing.T, r *machRig) {
			r.sendEnvs(0, token(0, 5, ocube.None))
			r.run(2 * rigTransit)
			r.send(1, 9) // carries the token's ack
			r.rest()
			if want := []uint64{5 | receiptBit, 9}; !slices.Equal(r.handed[0], want) {
				t.Errorf("node 0 was handed %x, want the receipt then the batch %x", r.handed[0], want)
			}
			if acks := r.pureAcks(0); len(acks) != 0 {
				t.Errorf("the receipt cost %d pure acks with a data frame to ride", len(acks))
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) { tc.run(t, newMachRig(t, tc.span)) })
	}
}

// TestSessionConfigFit: the ack delay RTO/4 is fitted into a
// fault-tolerant node's timeout slack, max(SuspicionSlack, δ/8), and
// nothing else is touched.
func TestSessionConfigFit(t *testing.T) {
	const ms = time.Millisecond
	ft := func(delta, slack time.Duration) core.Config {
		return core.Config{FT: true, Delta: delta, SuspicionSlack: slack}
	}
	for _, tc := range []struct {
		what string
		in   SessionConfig
		node core.Config
		want time.Duration
	}{
		{"no fault tolerance", SessionConfig{}, core.Config{Delta: ms}, 0},
		{"default RTO, room to spare", SessionConfig{}, ft(200*ms, 1000*ms), 50 * ms},
		{"default RTO, small δ and no slack", SessionConfig{}, ft(5*ms, 0), 5 * ms / 2},
		{"set RTO, slack below RTO/4", SessionConfig{RTO: 30 * ms}, ft(40*ms, 6*ms), 24 * ms},
		{"set RTO, slack above RTO/4", SessionConfig{RTO: 30 * ms}, ft(40*ms, 100*ms), 30 * ms},
	} {
		tc.in.Boot = 7
		got := tc.in.Fit(tc.node)
		if got.RTO != tc.want || got.Boot != 7 || got.MaxRTO != 0 {
			t.Errorf("%s: Fit gave %+v, want RTO %v and the rest as it was", tc.what, got, tc.want)
		}
	}
}
