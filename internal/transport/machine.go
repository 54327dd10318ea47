//ocmxvet:deterministic

package transport

import (
	"math"
	"math/bits"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/ocube"
)

// This file is the session discipline itself, with no I/O in it: the
// paper assumes every link reliable with a bounded delay (Section 2), and
// a Machine manufactures such a link out of a lossy one — per-peer
// sequence numbers in a window that is a wire constant, a receiver that
// drops duplicates with one 64-bit window, acks that are that window,
// and exponential-backoff retransmission with jitter. It is a pure state
// machine in the shape of core.Node: the driver tells it the time and
// what happened (Send, Frame, Tick), and it answers with the frames to
// put on the link, the batch to deliver and one deadline. Two drivers
// exist — Session (session.go) on the wall clock and sim.Network under
// the deterministic engine — so the simulator validates the code that
// ships.
//
// Acks ride, they are not sent: every frame to a peer carries the
// receiver's dedup window, which acknowledges all it delivered, so the
// next frame repairs a lost ack. The window travels alone, as a pure ack
// frame, only when no data frame takes it: once the oldest owed frame has
// waited RTO/4, once ackEvery frames are owed or its in-order floor has
// moved by ackEvery, and at once for a duplicate (its sender is
// retransmitting).
//
// An ack is also the receipt of what its frame carried. The protocol
// wants one thing acknowledged end to end, the unlent token (core.
// KindTokenAck), and a second acknowledgment on top of the session's
// would be one more envelope for every such token: so Send marks each
// unlent token Receipted, which keeps the recipient's node from
// answering, and the ack that retires the token's frame makes Frame
// hand the driver the KindTokenAck the sending node waits for. A frame
// that is never acknowledged — lost with a dead peer, abandoned by
// reborn — yields none, and the node's watchdog regenerates as it would
// over a bare channel.

// SessionConfig tunes a reliable session. The zero value takes the
// defaults documented per field.
type SessionConfig struct {
	// RTO is the initial retransmission timeout. Default 50ms, live and
	// simulated alike; it should exceed the link's round trip plus RTO/4
	// of ack delay, or healthy traffic retransmits spuriously. RTO/4 is
	// also how long the receipt of an unlent token may trail its delivery,
	// which a fault-tolerant node's ack watchdog has to allow for: see Fit.
	RTO time.Duration
	// MaxRTO caps the exponential backoff. Default 1s.
	MaxRTO time.Duration
	// Boot is this session's incarnation number. A restarted node must
	// come back with a Boot strictly above any it used before (a persisted
	// counter, or the wall clock at startup: lockspace.Start picks one):
	// receivers key their dedup window on the sender's boot, so a higher
	// boot resets the window — without it every frame of the fresh
	// incarnation, restarting at Seq 1, would be discarded as a duplicate —
	// and frames from an older boot are dropped outright. Default 1.
	Boot uint64
}

const (
	defaultRTO = 50 * time.Millisecond
	// window is how far a sender may number a frame ahead of its oldest
	// unacknowledged one, and the width of the receiver's dedup mask.
	window = 64
	// ackEvery owed acks leave at once, without waiting for a ride.
	ackEvery = window / 4
	// jitter is the fraction of the current timeout added as a random
	// extra on every retransmission (decorrelates retransmit storms).
	jitter = 0.2
)

func (c SessionConfig) withDefaults() SessionConfig {
	if c.RTO <= 0 {
		c.RTO = defaultRTO
	}
	if c.MaxRTO <= 0 {
		c.MaxRTO = time.Second
	}
	if c.Boot == 0 {
		c.Boot = 1
	}
	return c
}

// Fit returns c with its RTO lowered, if need be, to what node's failure
// timeouts leave room for. A fault-tolerant node gives the acknowledgment
// of an unlent token 2δ plus its slack to come back (core: roundDelay),
// and over a session that acknowledgment is the session's ack, which may
// wait RTO/4 for a frame to ride: the wait has to fit in the slack, so
// RTO ≤ 4·node.Slack(). lockspace.Start, which builds every live node's
// session, passes its SessionConfig through here.
func (c SessionConfig) Fit(node core.Config) SessionConfig {
	if !node.FT {
		return c
	}
	if c.RTO <= 0 {
		c.RTO = defaultRTO
	}
	c.RTO = min(c.RTO, 4*node.Slack())
	return c
}

// SessionStats are session-wide reliability counters: how much work the
// session layer did to make the link look reliable.
type SessionStats struct {
	// Frames counts first transmissions of data frames.
	Frames int64
	// Retransmits counts data frames sent again after a timeout or a
	// failed send.
	Retransmits int64
	// DupDrops counts received data frames discarded as duplicates (the
	// original delivery won; the ack is repeated).
	DupDrops int64
	// AckTimeouts counts retransmission timeouts that expired with the
	// frame still unacknowledged.
	AckTimeouts int64
	// StaleBootDrops counts data frames that belong to no live sequence
	// space: from a dead incarnation of the sender (a boot below its
	// current one) or to a dead one of this node — traffic in flight
	// across a restart — or numbered beyond the window.
	StaleBootDrops int64
	// AckFrames counts pure ack frames sent: acknowledgements that found
	// no data frame to ride.
	AckFrames int64
	// AcksPiggybacked counts received data frames whose acknowledgement
	// left on a data frame; with AckFrames it gives the coalescing ratio.
	AcksPiggybacked int64
	// Receipts counts the token acknowledgments handed to this node in
	// place of a KindTokenAck envelope: one per unlent token sent whose
	// frame an ack retired.
	Receipts int64
}

// Add returns the field-wise sum of s and b: the counters of several
// machines, or of one member's successive incarnations.
func (s SessionStats) Add(b SessionStats) SessionStats {
	s.Frames += b.Frames
	s.Retransmits += b.Retransmits
	s.DupDrops += b.DupDrops
	s.AckTimeouts += b.AckTimeouts
	s.StaleBootDrops += b.StaleBootDrops
	s.AckFrames += b.AckFrames
	s.AcksPiggybacked += b.AcksPiggybacked
	s.Receipts += b.Receipts
	return s
}

// PeerStats is the per-peer slice of the session counters: which
// neighbor the retransmits went to and whose frames were dup-dropped.
// It is a separate type (not a map inside SessionStats) so SessionStats
// stays comparable with ==, which existing tests rely on.
type PeerStats struct {
	// Retransmits counts data frames re-sent to this peer.
	Retransmits int64
	// DupDrops counts frames received from this peer and discarded as
	// duplicates.
	DupDrops int64
}

// SessFrame is the wire unit of a session: a data frame carries one
// envelope batch under a per-sender sequence number, a pure ack carries
// Seq 0. Either acknowledges with the receiver's dedup window: every
// frame the peer delivered so far, so an ack lost is an ack repeated by
// the next frame, not a retransmission.
//
// A frame travels between two incarnations: Boot is the sender's, ToBoot
// the one it addresses. Sequence numbers, acks and payloads all belong
// to that pair, so nothing meant for a node's previous life — an ack for
// frames it no longer holds, a payload its previous life may already
// have consumed — takes effect in the next.
type SessFrame struct {
	// From is the sending node.
	From ocube.Pos
	// Boot is the sender's incarnation number (SessionConfig.Boot). The
	// receiver resets its dedup window when a peer comes back with a
	// higher boot and drops frames from lower ones.
	Boot uint64
	// Seq numbers data frames per sender starting at 1; 0 marks a pure
	// ack frame.
	Seq uint64
	// Ack acknowledges receipt of every one of the peer's data frames up
	// to and including Ack.
	Ack uint64
	// AckMask acknowledges, beyond Ack, frame Ack+1+i for each set bit i.
	// Ack and AckMask both 0 acknowledge nothing.
	AckMask uint64
	// ToBoot is the incarnation of the receiver this frame addresses: the
	// boot of the last frame the sender had from it, 0 if it has had
	// none. A receiver whose boot differs ignores the ack fields and
	// refuses the payload; 0 addresses whichever incarnation is there.
	ToBoot uint64
	// Batch is the payload of a data frame.
	Batch []core.Envelope
}

// Outgoing is one frame a Machine wants on the link, for node To; the
// frame's Batch stays owned by the machine.
type Outgoing struct {
	To    ocube.Pos
	Frame SessFrame
}

// Never is the deadline of a machine with nothing to wait for.
const Never = time.Duration(math.MaxInt64)

// Machine is one node's end of every session it has: exactly-once
// delivery of every batch Send accepted, bought with retransmission and
// dedup. Frames may still arrive out of order — the protocol tolerates
// reordering (Section 2 assumes no FIFO). It holds no lock and reads no
// clock: the driver serializes the calls and supplies now, a duration
// since any fixed origin that never decreases from call to call. Send,
// Frame and Tick append the frames they want transmitted to the out
// slice they are handed and return it, so a driver reuses one buffer.
//
// What a machine gives its driver is four things: frames for the link,
// the batch a frame delivered, the receipts an ack produced (see Frame),
// and one deadline.
type Machine struct {
	self     ocube.Pos
	cfg      SessionConfig
	rng      *rand.Rand
	sendSpan uint64 // window; lowered only by tests, to reach the backlog

	// peers is indexed by position, grown on first use (SessTCP refuses a
	// frame from a position with no address); nil where no peer is yet.
	peers []*machPeer
	// active lists the peers Tick has to look at: those with a frame in
	// flight or a window owed. A peer joins when either becomes true and is
	// dropped by the first Tick that finds neither.
	active []*machPeer
	// deadline is when Tick next has work, as a lower bound: a send or a
	// newly owed ack pulls it in, only Tick — which visits every active
	// peer anyway — pushes it out, so a frame acked before its timeout
	// costs at most one idle Tick and no call here scans the peers.
	deadline time.Duration
	unacked  int // batches accepted and not yet acknowledged, backlog included
	stats    SessionStats
}

// machPeer is one peer's session state, both directions.
type machPeer struct {
	pos ocube.Pos

	// Sender side: frames to this peer. inflight holds the transmitted,
	// unacknowledged ones in Seq order, within a window of the oldest;
	// backlog holds, first in first out, the batches accepted while the
	// window was full — each takes its sequence number (after nextSeq, the
	// last given) once the oldest is acked, so no frame on the link is a
	// window ahead of what the peer delivered in order.
	nextSeq  uint64
	inflight []machOut
	backlog  [][]core.Envelope

	// Receiver side: frames from this peer.
	recvBoot uint64 // the peer incarnation the window below belongs to
	recvHigh uint64 // every seq ≤ recvHigh was delivered
	recvMask uint64 // bit i: seq recvHigh+1+i was delivered

	// owed counts the frames delivered since the window last left for
	// the peer; while it is not 0, ackAt is when the window leaves alone
	// unless a data frame takes it first. acked is recvHigh when it left.
	// The window leaves at once when ackEvery are owed or recvHigh has
	// moved ackEvery past acked: the sender's span opens only as recvHigh
	// moves, and frames parked above a late one may have left uncounted.
	owed  int
	ackAt time.Duration
	acked uint64

	active bool // listed in Machine.active

	// Per-peer slices of the aggregate SessionStats counters (kept here,
	// not in SessionStats, so that struct stays comparable with ==).
	retransmits int64 // data frames re-sent to this peer
	dupDrops    int64 // frames from this peer discarded as duplicates
}

type machOut struct {
	seq      uint64
	batch    []core.Envelope
	attempts int
	due      time.Duration // when it is sent again unless acked first
}

// NewMachine builds the session state of node self. cfg's zero fields
// take their defaults here, the one place they are applied; rng supplies
// the retransmission jitter and may be shared with the driver, which then
// fixes the order of draws by the order of its calls.
func NewMachine(self ocube.Pos, cfg SessionConfig, rng *rand.Rand) *Machine {
	cfg = cfg.withDefaults()
	return &Machine{
		self:     self,
		cfg:      cfg,
		rng:      rng,
		sendSpan: window,
		deadline: Never,
	}
}

// Stats returns the machine's reliability counters.
func (m *Machine) Stats() SessionStats { return m.stats }

// PeerStats returns the per-peer counter breakdown; the values sum to
// the aggregate Stats counters.
func (m *Machine) PeerStats() map[ocube.Pos]PeerStats {
	out := make(map[ocube.Pos]PeerStats)
	for _, p := range m.peers {
		if p != nil && (p.retransmits != 0 || p.dupDrops != 0) {
			out[p.pos] = PeerStats{Retransmits: p.retransmits, DupDrops: p.dupDrops}
		}
	}
	return out
}

// Unacked returns how many accepted batches no ack has retired yet,
// whether transmitted or still waiting for a window slot.
func (m *Machine) Unacked() int { return m.unacked }

// Deadline reports when Tick should next be called, Never while the
// machine waits for nothing. It is a lower bound (see Machine.deadline):
// a Tick at it may find nothing to do and name a later one.
func (m *Machine) Deadline() time.Duration { return m.deadline }

func (m *Machine) peer(pos ocube.Pos) *machPeer {
	if n := int(pos) + 1; n > len(m.peers) {
		m.peers = append(m.peers, make([]*machPeer, n-len(m.peers))...)
	}
	p := m.peers[pos]
	if p == nil {
		p = &machPeer{pos: pos}
		m.peers[pos] = p
	}
	return p
}

// wake makes sure Tick visits p, and no later than at.
func (m *Machine) wake(p *machPeer, at time.Duration) {
	if !p.active {
		p.active = true
		m.active = append(m.active, p)
	}
	m.deadline = min(m.deadline, at)
}

// Send accepts batch for exactly-once delivery to node to and never
// waits: with room in the window it is transmitted now, beyond it the
// batch joins the peer's backlog. The machine keeps batch until it is
// acknowledged, so the caller hands over a slice nobody else writes —
// the machine does, once: every unlent token in it is marked Receipted,
// and its receipt comes out of Frame when the batch's frame is retired.
// Capacity the caller leaves past len(batch) is the machine's too (see
// Frame).
func (m *Machine) Send(now time.Duration, to ocube.Pos, batch []core.Envelope, out []Outgoing) []Outgoing {
	for i := range batch {
		if Receiptable(batch[i].Msg) {
			batch[i].Msg.Receipted = true
		}
	}
	p := m.peer(to)
	m.unacked++
	if !m.room(p) {
		p.backlog = append(p.backlog, batch)
		return out
	}
	return m.transmit(now, p, batch, out)
}

// room reports whether the next sequence number stays within the window
// of the oldest frame in flight, all below which p has delivered.
func (m *Machine) room(p *machPeer) bool {
	return len(p.inflight) == 0 || p.nextSeq+1-p.inflight[0].seq < m.sendSpan
}

// transmit gives batch the next sequence number and its first
// transmission. Room in the window is the caller's business (room).
func (m *Machine) transmit(now time.Duration, p *machPeer, batch []core.Envelope, out []Outgoing) []Outgoing {
	p.nextSeq++
	due := now + m.backoff(0)
	p.inflight = append(p.inflight, machOut{seq: p.nextSeq, batch: batch, due: due})
	m.stats.Frames++
	m.wake(p, due)
	return append(out, Outgoing{p.pos, m.dataFrame(p, p.nextSeq, batch)})
}

// release moves backlog into whatever room the window has, oldest first.
func (m *Machine) release(now time.Duration, p *machPeer, out []Outgoing) []Outgoing {
	for len(p.backlog) > 0 && m.room(p) {
		batch := p.backlog[0]
		p.backlog[0] = nil
		p.backlog = p.backlog[1:]
		out = m.transmit(now, p, batch, out)
	}
	return out
}

// ackFrame builds a pure ack frame for p: p's window, which leaves with
// every frame to p and settles what p is owed.
func (m *Machine) ackFrame(p *machPeer) SessFrame {
	p.owed, p.acked = 0, p.recvHigh
	return SessFrame{From: m.self, Boot: m.cfg.Boot, ToBoot: p.recvBoot, Ack: p.recvHigh, AckMask: p.recvMask}
}

// dataFrame builds data frame seq for p, the window riding on it. The
// frame's view of batch ends at its length: the capacity behind it is for
// receipts (see Frame), and on the in-memory mesh the receiver gets this
// very slice.
func (m *Machine) dataFrame(p *machPeer, seq uint64, batch []core.Envelope) SessFrame {
	m.stats.AcksPiggybacked += int64(p.owed)
	f := m.ackFrame(p)
	f.Seq, f.Batch = seq, batch[:len(batch):len(batch)]
	return f
}

// pureAck is ackFrame on its own, for the link.
func (m *Machine) pureAck(p *machPeer) Outgoing {
	m.stats.AckFrames++
	return Outgoing{p.pos, m.ackFrame(p)}
}

// backoff returns the retransmission timeout for the given attempt
// count: RTO doubled per attempt, capped at MaxRTO, plus jitter.
func (m *Machine) backoff(attempts int) time.Duration {
	rto := m.cfg.RTO << uint(attempts)
	if rto <= 0 || rto > m.cfg.MaxRTO {
		rto = m.cfg.MaxRTO
	}
	if j := int64(float64(rto) * jitter); j > 0 {
		rto += time.Duration(m.rng.Int63n(j + 1))
	}
	return rto
}

// Tick is the machine's timer: it re-sends every frame in flight that is
// overdue, per peer in Seq order, sends alone the windows owed past the
// ack delay, and works out the next deadline. A Tick before the deadline
// does nothing.
func (m *Machine) Tick(now time.Duration, out []Outgoing) []Outgoing {
	if now < m.deadline {
		return out
	}
	next := Never
	busy := m.active[:0]
	for _, p := range m.active {
		for i := range p.inflight {
			o := &p.inflight[i]
			if o.due <= now {
				o.attempts++
				o.due = now + m.backoff(o.attempts)
				m.stats.AckTimeouts++
				m.stats.Retransmits++
				p.retransmits++
				out = append(out, Outgoing{p.pos, m.dataFrame(p, o.seq, o.batch)})
			}
			next = min(next, o.due)
		}
		if p.owed > 0 && p.ackAt <= now {
			out = append(out, m.pureAck(p))
		}
		if p.owed > 0 {
			next = min(next, p.ackAt)
		}
		if p.active = len(p.inflight) > 0 || p.owed > 0; p.active {
			busy = append(busy, p)
		}
	}
	m.active = busy
	m.deadline = next
	return out
}

// Frame takes one inbound frame: it retires what the frame acknowledges,
// lets backlog into the room that made, and for a data frame runs the
// dedup window and owes the peer its window. It returns the batch to hand
// to the application, nil for a pure ack, a duplicate or a refused frame.
//
// It also returns, appended to rcpt, the receipts the frame's ack
// produced: one KindTokenAck envelope, from the peer to this node, for
// each Receipted token in the frames it retired. They are inbound
// envelopes like the batch and go to the application ahead of it. A
// driver that applies them before its next call here passes the same
// buffer every time; one that queues them passes nil, and the receipts
// are written into the spare capacity of the first retired batch that
// has any to report — memory no reader of that batch looks at, which
// the driver sized at Send — or, where that runs out, into a new slice.
func (m *Machine) Frame(now time.Duration, f SessFrame, out []Outgoing, rcpt []core.Envelope) (batch, receipts []core.Envelope, _ []Outgoing) {
	p := m.peer(f.From)
	if f.Boot < p.recvBoot {
		// A frame from a dead incarnation of the peer; its session is
		// gone, so there is no point acking it either.
		if f.Seq != 0 {
			m.stats.StaleBootDrops++
		}
		return nil, rcpt, out
	}
	if f.Boot > p.recvBoot {
		m.reborn(p, f.Boot)
	}
	mine := f.ToBoot == m.cfg.Boot
	if mine {
		rcpt = m.retire(p, f.Ack, f.AckMask, rcpt)
	}
	switch {
	case f.Seq == 0: // pure ack
	case mine || f.ToBoot == 0:
		batch, out = m.accept(now, p, f, out)
	default:
		// Addressed to a previous life of this node, which may have
		// consumed it already: refuse it, and tell the sender who is here
		// now (a bare frame — its Boot is the message), so it stops
		// re-sending what died with that life.
		m.stats.StaleBootDrops++
		out = append(out, Outgoing{p.pos, SessFrame{From: m.self, Boot: m.cfg.Boot, ToBoot: p.recvBoot}})
	}
	return batch, rcpt, m.release(now, p, out)
}

// accept runs data frame f through p's dedup window and owes p the window.
func (m *Machine) accept(now time.Duration, p *machPeer, f SessFrame, out []Outgoing) ([]core.Envelope, []Outgoing) {
	bit := uint64(1) << (f.Seq - p.recvHigh - 1) // f's bit in the mask, if f is in the window
	switch {
	case f.Seq > p.recvHigh+window:
		// No sender keeping the window numbers a frame this far ahead: it
		// belongs to no sequence space this node shares. Dropped, unacked.
		m.stats.StaleBootDrops++
		return nil, out
	case f.Seq <= p.recvHigh || p.recvMask&bit != 0:
		// The window was lost (or is still owed) and the sender is
		// retransmitting: answer at once.
		m.stats.DupDrops++
		p.dupDrops++
		return nil, append(out, m.pureAck(p))
	}
	p.recvMask |= bit
	n := bits.TrailingZeros64(^p.recvMask) // the run delivered in order from recvHigh+1
	p.recvHigh += uint64(n)
	p.recvMask >>= n

	if p.owed == 0 {
		p.ackAt = now + m.cfg.RTO/4 // the ack delay
		m.wake(p, p.ackAt)
	}
	if p.owed++; p.owed >= ackEvery || p.recvHigh-p.acked >= ackEvery {
		out = append(out, m.pureAck(p))
	}
	return f.Batch, out
}

// reborn notes that p now runs incarnation boot. Its sequence space
// restarted, so the dedup window restarts too; the window owed to the
// previous incarnation has no one to receive it; and the frames it
// never acknowledged were addressed to it and died with it — it may have
// consumed them, so they must not reach its successor, whose window
// starts at 1: the sequence toward it restarts, the backlog (never
// transmitted) first. A first contact (no incarnation known before)
// abandons nothing and keeps the sequence.
func (m *Machine) reborn(p *machPeer, boot uint64) {
	if p.recvBoot != 0 {
		m.unacked -= len(p.inflight)
		clear(p.inflight)
		p.inflight = p.inflight[:0]
		p.nextSeq = 0
	}
	p.recvBoot = boot
	p.recvHigh = 0
	p.recvMask = 0
	p.owed, p.acked = 0, 0
}

// retire drops the frames in flight that the window (ack, mask) of an
// ack for this incarnation names — every one numbered up to ack, and
// ack+1+i for each set bit i of mask — and appends the receipts of the
// tokens they carried to rcpt. The retired batches are only read: on the
// in-memory mesh the receiver holds the same array and may not have
// looked at it yet.
func (m *Machine) retire(p *machPeer, ack, mask uint64, rcpt []core.Envelope) []core.Envelope {
	kept := p.inflight[:0]
	for _, o := range p.inflight {
		if o.seq > ack && mask>>(o.seq-ack-1)&1 == 0 {
			kept = append(kept, o)
			continue
		}
		for i := range o.batch {
			env := &o.batch[i]
			if !env.Msg.Receipted {
				continue
			}
			if rcpt == nil {
				rcpt = o.batch[len(o.batch):]
			}
			rcpt = append(rcpt, core.Envelope{Instance: env.Instance, Msg: core.Message{
				Kind: core.KindTokenAck, From: p.pos, To: m.self, Seq: env.Msg.Seq}})
			m.stats.Receipts++
		}
	}
	m.unacked -= len(p.inflight) - len(kept)
	clear(p.inflight[len(kept):])
	p.inflight = kept
	return rcpt
}

// Receiptable reports whether Send will mark msg Receipted: it is an
// unlent token, the one message whose delivery its sender's node waits
// to hear of. A driver that queues receipts sizes a batch's spare
// capacity by it.
func Receiptable(msg core.Message) bool {
	return msg.Kind == core.KindToken && msg.Lender == ocube.None
}
