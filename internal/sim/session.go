package sim

import (
	"repro/internal/core"
	"repro/internal/ocube"
	"repro/internal/transport"
)

// This file is the simulator's driver of the session layer: with
// Config.Session set every node gets a transport.Machine — the state
// machine transport.Session runs live, coalesced acks, window and boot
// scoping included — and this driver is its clock, link and timer, all
// from the deterministic engine, so LossyDelay and PartitionWindow
// validate the shipped discipline end-to-end with byte-identical replays.
// Every inter-node send becomes a one-envelope batch; every frame a
// machine emits, data or pure ack, is one draw from the delay model and
// one typed arena event, or is lost; each node's deadline lives in one
// in-place timer slot. All machines draw jitter from the network's
// generator, in the order the engine steps them. The machine acknowledges
// unlent tokens to their sender's node itself (a receipt, see
// Machine.Frame), so with sessions on no KindTokenAck crosses the
// simulated wire either.
//
// Session state is modeled below the crash line (a network-layer agent):
// it survives a node's fail-stop with its boot unchanged, keeps its
// timers and keeps retiring what arriving acks name; only the payload of
// a frame that reaches a down node is lost, unacknowledged, so its sender
// retransmits until the node recovers — the sim analogue of
// reconnect-and-replay. The live crash takes the session with it (a new
// boot per recovery); giving the sim that is a follow-up the boot rule
// stands in the way of (TestMachineFirstFrameToRebornPeerIsRefused).

// sessArrival is the payload of an evSessFrame event: one physical frame
// on its way to node to.
type sessArrival struct {
	to ocube.Pos
	f  transport.SessFrame
}

// sessBatchSlab is how many one-envelope batches one slab allocation
// serves; a slab is garbage once every batch cut from it is acknowledged.
const sessBatchSlab = 256

// sessMachine returns node x's session machine, built on first use.
func (w *Network) sessMachine(x ocube.Pos) *transport.Machine {
	m := w.sess[x]
	if m == nil {
		m = transport.NewMachine(x, *w.cfg.Session, w.rng)
		w.sess[x] = m
	}
	return m
}

// sessSend accepts one envelope into its sender's session: it is counted
// busy until acknowledged, transmitted now — or once the window has room
// — and retransmitted until the receiver's ack retires it.
func (w *Network) sessSend(env core.Envelope) {
	if len(w.sessSlab) == 0 {
		w.sessSlab = make([]core.Envelope, sessBatchSlab)
	}
	batch := w.sessSlab[:1:1]
	w.sessSlab = w.sessSlab[1:]
	batch[0] = env

	from := env.Msg.From
	w.sessUnacked++
	if env.Msg.Kind == core.KindToken {
		// The logical token is in flight from first transmission until
		// the accepted delivery, however many frames that takes.
		w.inflightTokens++
	}
	w.sessEmit(from, w.sessMachine(from).Send(w.Eng.Now(), env.Msg.To, batch, w.sessOut[:0]))
}

// sessEmit puts the frames node from's machine just emitted on the wire
// — each draws its delay here, inside the step that emitted it, and each
// data frame is recorded per physical transmission — and re-aims the
// node's timer slot at the machine's deadline. Pure acks travel the same
// lossy channel but are not protocol messages: they are neither recorded
// nor counted in LostInTransit — a lost ack surfaces as a retransmission
// and a duplicate drop instead.
func (w *Network) sessEmit(from ocube.Pos, out []transport.Outgoing) {
	now := w.Eng.Now()
	for _, o := range out {
		d := w.cfg.Delay(w.rng, now, from, o.To)
		for _, env := range o.Frame.Batch {
			w.record(env.Msg)
		}
		if d == Lost {
			if o.Frame.Seq != 0 {
				w.lostInTransit++
			}
			if w.logging {
				w.logf("LOST in transit: frame to %v %+v", o.To, o.Frame)
			}
			continue
		}
		if w.logging {
			w.logf("send frame to %v %+v (delay %v)", o.To, o.Frame, d)
		}
		w.Eng.schedule(d, evSessFrame, w.Eng.frames.put(sessArrival{to: o.To, f: o.Frame}))
	}
	w.sessOut = out[:0]
	if at := w.sess[from].Deadline(); at < w.sessArmed[from] {
		w.sessArmed[from] = at
		w.Eng.scheduleTimer(w.sessSlot+int32(from), 0, at-now)
	}
}

// sessTick fires node x's session timer: overdue frames are sent again
// with doubled backoff, owed acks that found no ride leave alone. Like
// the rest of the session it runs whether or not the node is up.
func (w *Network) sessTick(x ocube.Pos) {
	w.sessArmed[x] = transport.Never
	w.sessEmit(x, w.sess[x].Tick(w.Eng.Now(), w.sessOut[:0]))
}

// sessArrive lands one physical frame at node to. Its session half always
// takes effect; a data frame's payload is handed to the node exactly once
// however many copies arrive — unless the node is down, when it is dropped
// unseen and unacknowledged and its sender keeps retransmitting until the
// node is back: the paper's channels never lose, so the session keeps its
// promise across the crash. The receipts the frame's ack produced go to
// the node first; at a down node they are dropped like any input — the
// transfer guard they would have released died with the crash.
func (w *Network) sessArrive(to ocube.Pos, f transport.SessFrame) {
	if f.Seq != 0 && w.down[to] {
		w.lostToFailed++
		if w.logging {
			w.logf("LOST at failed node: frame %+v", f)
		}
		f.Seq, f.Batch = 0, nil
	}
	m := w.sessMachine(to)
	before := m.Unacked()
	batch, receipts, out := m.Frame(w.Eng.Now(), f, w.sessOut[:0], w.sessRcpt[:0])
	w.sessUnacked += m.Unacked() - before
	w.sessEmit(to, out)
	if !w.down[to] {
		for _, env := range receipts {
			w.sessHand(to, env)
		}
	}
	w.sessRcpt = receipts[:0]
	for _, env := range batch {
		if env.Msg.Kind == core.KindToken {
			w.inflightTokens--
		}
		w.sessHand(to, env)
	}
	w.refreshBusy(to)
}

// sessHand gives node to one envelope its session yielded.
func (w *Network) sessHand(to ocube.Pos, env core.Envelope) {
	if env.Instance == core.NoInstance {
		w.apply(to, w.peers[to].HandleMessage(env.Msg))
	} else {
		w.apply(to, w.insts[to].HandleEnvelope(env))
	}
}

// SessionStats returns the session layer's reliability counters, summed
// over every node's machine; zero when Config.Session is nil.
func (w *Network) SessionStats() transport.SessionStats {
	var sum transport.SessionStats
	for _, m := range w.sess {
		if m == nil {
			continue
		}
		sum = sum.Add(m.Stats())
	}
	return sum
}
