package transport

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/ocube"
)

// This file is the live half of the PR-6 session layer: the paper assumes
// reliable bounded-delay channels (Section 2), and a Session manufactures
// that channel out of a lossy one — per-peer monotonic sequence numbers,
// a sliding-window receiver that drops duplicates, selective acks, and
// exponential-backoff retransmission with jitter. A bounded in-flight
// window applies backpressure to senders instead of buffering without
// limit. The simulator hosts its own driver of the same discipline
// (internal/sim, Config.Session) so LossyDelay/PartitionWindow validate
// it deterministically; this one rides any FrameLink — the in-memory
// SessMesh in one process and SessTCP for multi-process deployments, where a
// dropped connection is repaired by the link's lazy redial and the
// retransmit timers replay everything the drop swallowed.
//
// Acks ride, they are not sent: a received data frame makes its ack
// owed, and owed acks leave on the next data frame to that peer. Only
// when no data frame comes do they travel alone, as one pure ack frame
// once the oldest has waited RTO/4 or Window/4 of them are owed; a
// duplicate (its sender is already retransmitting) and a gap in the
// sequence (something was lost or reordered) are acked at once. When an
// ack leaves is this driver's choice — the sim driver acks per frame,
// where an ack is one uncounted engine event — and no part of the
// reliability contract the two share.

// SessionConfig tunes a reliable session. The zero value selects the
// defaults documented per field.
type SessionConfig struct {
	// Window bounds the unacknowledged frames in flight to one peer;
	// further sends block (backpressure). Default 64.
	Window int
	// RTO is the initial retransmission timeout. Default 50ms; the sim
	// driver's default is derived from the delay bound instead.
	RTO time.Duration
	// MaxRTO caps the exponential backoff. Default 1s.
	MaxRTO time.Duration
	// Jitter is the fraction of the current timeout added as a random
	// extra on every retransmission (decorrelates retransmit storms).
	// Default 0.2.
	Jitter float64
	// Boot is this session's incarnation number. A restarted node must
	// come back with a Boot strictly above any it used before (a
	// persisted counter, or coarse wall-clock at startup): receivers key
	// their dedup window on the sender's boot, so a higher boot resets
	// the window — without it every frame of the fresh incarnation,
	// restarting at Seq 1, would be discarded as a duplicate — and
	// frames from an older boot are dropped outright. Default 1.
	Boot uint64
}

func (c SessionConfig) withDefaults() SessionConfig {
	if c.Window <= 0 {
		c.Window = 64
	}
	if c.RTO <= 0 {
		c.RTO = 50 * time.Millisecond
	}
	if c.MaxRTO <= 0 {
		c.MaxRTO = time.Second
	}
	if c.Jitter <= 0 {
		c.Jitter = 0.2
	}
	if c.Boot == 0 {
		c.Boot = 1
	}
	return c
}

// SessionStats are session-wide reliability counters: how much work the
// session layer did to make the channel look reliable.
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
	// StaleBootDrops counts data frames discarded because they came from a
	// dead incarnation of the sender (a boot below its current one) or
	// addressed a dead incarnation of this node — traffic still in flight
	// after a restart.
	StaleBootDrops int64
	// AckFrames counts pure ack frames sent: acknowledgements that found
	// no data frame to ride.
	AckFrames int64
	// AcksPiggybacked counts received data frames whose acknowledgement
	// left on a data frame; with AckFrames it gives the coalescing ratio.
	AcksPiggybacked int64
}

// SessFrame is the wire unit of a live session: a data frame carries one
// envelope batch under a per-sender sequence number, a pure ack carries
// Seq 0. Either may acknowledge a run of the peer's frames. Acks are
// selective, not cumulative, so a lost ack costs one retransmission
// rather than a window stall.
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
	// Ack acknowledges receipt of the peer's data frames Ack-AckRun
	// through Ack (0 = none).
	Ack uint64
	// AckRun is how many frames immediately below Ack are acknowledged
	// with it; a receiver acks contiguous arrivals as one run.
	AckRun uint32
	// ToBoot is the incarnation of the receiver this frame addresses: the
	// boot of the last frame the sender had from it, 0 if it has had
	// none. A receiver whose boot differs ignores the ack fields and
	// refuses the payload; 0 addresses whichever incarnation is there.
	ToBoot uint64
	// Batch is the payload of a data frame.
	Batch []core.Envelope
}

// FrameLink moves session frames between nodes: the unreliable substrate
// a Session builds its reliable channel on.
type FrameLink interface {
	// SendFrame transmits f to node to. An error means the frame may be
	// lost — the session retries; it must not block indefinitely.
	SendFrame(to ocube.Pos, f SessFrame) error
	// RecvFrame returns the channel of inbound frames, closed when the
	// link closes.
	RecvFrame() <-chan SessFrame
	// Close releases resources and unblocks receivers.
	Close() error
}

// framePusher is a FrameLink that can call its receiver instead of
// queueing for it: the in-tree links (SessTCP, a SessMesh endpoint) hand
// each inbound frame to the session on the goroutine that read it, which
// saves the hop through RecvFrame's channel and recvLoop. NewSession
// discovers it; a wrapper that only forwards the FrameLink methods hides
// it, and its session is fed through RecvFrame as before.
type framePusher interface {
	// pushTo makes the link call sink for each inbound frame from now on,
	// possibly from several goroutines at once, and returns the undo,
	// after which frames queue for RecvFrame again. sink must not block
	// and must not send on the link: on TCP it runs on the connection's
	// reader, and a reader that waits for a write to drain can wait for a
	// peer whose own reader is doing the same.
	pushTo(sink func(SessFrame)) (stop func())
}

// sessPeer is one directed peer's session state.
type sessPeer struct {
	// Sender side: frames to this peer.
	nextSeq  uint64
	unacked  map[uint64]*sessOut
	sendSlot chan struct{} // window semaphore

	// Receiver side: frames from this peer.
	recvBoot uint64              // the peer incarnation the window below belongs to
	recvHigh uint64              // every seq ≤ recvHigh was delivered
	recvSeen map[uint64]struct{} // delivered seqs above recvHigh

	// Owed acks: the run of recvBoot's frames (ackHi-ackN, ackHi] was
	// received and not yet acknowledged; ackN == 0 means nothing is owed.
	ackHi    uint64
	ackN     uint32
	ackSince time.Time // arrival of the oldest owed frame

	// urgent holds the pure acks onFrame wants sent at once — for a
	// duplicate, a gap, Window/4 owed, a stale ToBoot. onFrame may be
	// running on the link's reader, which must not write to the link, so
	// they leave from the timer's goroutine, armed for now.
	urgent []SessFrame

	// timer is the peer's one timer: it serves the ack delay, the earliest
	// retransmission and the urgent acks alike. timerAt is when it is set
	// to fire, zero when it is not armed.
	timer   *time.Timer
	timerAt time.Time

	// Per-peer slices of the aggregate SessionStats counters (kept here,
	// not in SessionStats, so that struct stays comparable with ==).
	retransmits int64 // data frames re-sent to this peer
	dupDrops    int64 // frames from this peer discarded as duplicates
}

type sessOut struct {
	batch    []core.Envelope
	attempts int
	due      time.Time // when it is sent again unless acked first
}

// Session is a reliable BatchTransport over an unreliable FrameLink:
// exactly-once delivery of every batch that SendBatch accepted, bought
// with retransmission and dedup. Frames may still arrive out of order —
// the protocol tolerates reordering (Section 2 assumes no FIFO).
type Session struct {
	self ocube.Pos
	link FrameLink
	cfg  SessionConfig
	// Derived from cfg: owed acks leave alone once ackEvery are owed or
	// the oldest has waited ackDelay.
	ackEvery uint32
	ackDelay time.Duration

	mu     sync.Mutex
	peers  map[ocube.Pos]*sessPeer
	stats  SessionStats
	rng    *rand.Rand
	closed bool
	// A received batch goes straight onto out when nothing is ahead of
	// it. When the app is behind (out is full, or older batches are still
	// waiting) it joins pending, which deliverLoop hands over in order;
	// delivering says deliverLoop still holds batches it took from
	// pending. outClosed is set before out is closed.
	pending    [][]core.Envelope
	delivering bool
	outClosed  bool

	// out is buffered so that a consumer busy with one batch does not push
	// every arrival onto the deliverLoop path; its size only decides when
	// arrivals start to queue in pending instead, nothing is ever dropped.
	out      chan []core.Envelope
	pendingC chan struct{} // wakes deliverLoop; cap 1, best-effort
	recvDone chan struct{} // recvLoop exited (link closed)
	done     chan struct{}
	unpush   func() // undoes the link's pushTo; nil for a link that cannot push
	wg       sync.WaitGroup
}

// NewSession wraps link in a reliable session for node self. The session
// owns the link: Close closes it.
func NewSession(self ocube.Pos, link FrameLink, cfg SessionConfig) *Session {
	cfg = cfg.withDefaults()
	s := &Session{
		self:     self,
		link:     link,
		cfg:      cfg,
		ackEvery: uint32(max(1, cfg.Window/4)),
		ackDelay: cfg.RTO / 4,
		peers:    make(map[ocube.Pos]*sessPeer),
		rng:      rand.New(rand.NewSource(int64(self)*2654435761 + 1)),
		out:      make(chan []core.Envelope, 1024),
		pendingC: make(chan struct{}, 1),
		recvDone: make(chan struct{}),
		done:     make(chan struct{}),
	}
	s.wg.Add(2)
	go s.recvLoop()
	go s.deliverLoop()
	if pl, ok := link.(framePusher); ok {
		// recvLoop stays: it takes what the link queued before this call
		// and sees the link close.
		s.unpush = pl.pushTo(func(f SessFrame) { s.onFrame(f) })
	}
	return s
}

// Stats returns a snapshot of the session's reliability counters.
func (s *Session) Stats() SessionStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
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

// PeerStats returns a snapshot of the per-peer counter breakdown. The
// per-peer values sum to the aggregate Stats() counters taken under the
// same lock.
func (s *Session) PeerStats() map[ocube.Pos]PeerStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[ocube.Pos]PeerStats, len(s.peers))
	for pos, p := range s.peers {
		if p.retransmits != 0 || p.dupDrops != 0 {
			out[pos] = PeerStats{Retransmits: p.retransmits, DupDrops: p.dupDrops}
		}
	}
	return out
}

func (s *Session) peer(to ocube.Pos) *sessPeer {
	p := s.peers[to]
	if p == nil {
		p = &sessPeer{
			unacked:  make(map[uint64]*sessOut),
			sendSlot: make(chan struct{}, s.cfg.Window),
			recvSeen: make(map[uint64]struct{}),
		}
		s.peers[to] = p
	}
	return p
}

// SendBatch implements BatchTransport: it enqueues the batch for
// exactly-once delivery, blocking while the peer's in-flight window is
// full and returning ErrClosed if the session closes first. The batch is
// copied before returning, so the caller may reuse its buffer.
func (s *Session) SendBatch(to ocube.Pos, batch []core.Envelope) error {
	if len(batch) == 0 {
		return nil
	}
	if len(batch) > MaxBatch {
		return fmt.Errorf("transport: batch of %d envelopes exceeds the frame cap %d", len(batch), MaxBatch)
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	p := s.peer(to)
	s.mu.Unlock()

	// Backpressure: one window slot per unacknowledged frame.
	select {
	case p.sendSlot <- struct{}{}:
	case <-s.done:
		return ErrClosed
	}

	owned := make([]core.Envelope, len(batch))
	copy(owned, batch)

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	p.nextSeq++
	seq := p.nextSeq
	out := &sessOut{batch: owned, due: time.Now().Add(s.backoff(0))}
	p.unacked[seq] = out
	s.stats.Frames++
	f := s.dataFrame(p, seq, owned)
	s.arm(to, p, out.due)
	s.mu.Unlock()

	// A send error means the frame may be lost (e.g. the TCP peer is
	// down); the retransmit timer repairs it after the link re-dials.
	s.link.SendFrame(to, f)
	return nil
}

// dataFrame builds data frame seq for p; whatever acks p is owed ride on
// it. The caller holds s.mu.
func (s *Session) dataFrame(p *sessPeer, seq uint64, batch []core.Envelope) SessFrame {
	f := SessFrame{From: s.self, Boot: s.cfg.Boot, ToBoot: p.recvBoot, Seq: seq, Batch: batch}
	if p.ackN > 0 {
		s.stats.AcksPiggybacked += int64(p.ackN)
		f.Ack, f.AckRun = p.ackHi, p.ackN-1
		p.ackN = 0
	}
	return f
}

// ackFrame builds a pure ack frame for the run of n of p's frames ending
// at hi. The caller holds s.mu.
func (s *Session) ackFrame(p *sessPeer, hi uint64, n uint32) SessFrame {
	s.stats.AckFrames++
	return SessFrame{From: s.self, Boot: s.cfg.Boot, ToBoot: p.recvBoot, Ack: hi, AckRun: n - 1}
}

// owedFrame empties p's owed acks into a pure ack frame. The caller holds
// s.mu.
func (s *Session) owedFrame(p *sessPeer) SessFrame {
	f := s.ackFrame(p, p.ackHi, p.ackN)
	p.ackN = 0
	return f
}

// arm makes sure p's timer fires no later than at. A timer already set
// to fire earlier is left alone — onTimer re-arms for whatever is next —
// so steady traffic resets the timer about once per RTO, not per frame.
// The caller holds s.mu.
func (s *Session) arm(to ocube.Pos, p *sessPeer, at time.Time) {
	if !p.timerAt.IsZero() && !at.Before(p.timerAt) {
		return
	}
	p.timerAt = at
	d := time.Until(at)
	if p.timer == nil {
		p.timer = time.AfterFunc(d, func() { s.onTimer(to) })
	} else {
		p.timer.Reset(d)
	}
}

// backoff returns the retransmission timeout for the given attempt
// count: RTO doubled per attempt, capped at MaxRTO, plus jitter.
func (s *Session) backoff(attempts int) time.Duration {
	rto := s.cfg.RTO << uint(attempts)
	if rto <= 0 || rto > s.cfg.MaxRTO {
		rto = s.cfg.MaxRTO
	}
	if j := int64(float64(rto) * s.cfg.Jitter); j > 0 {
		rto += time.Duration(s.rng.Int63n(j + 1))
	}
	return rto
}

// onTimer is peer to's timer firing: it sends the urgent acks, re-sends
// every unacked frame that is overdue, in Seq order, sends the owed acks
// alone if they have waited out the ack delay, and re-arms for whichever
// comes next.
func (s *Session) onTimer(to ocube.Pos) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	p := s.peers[to]
	p.timerAt = time.Time{}
	now := time.Now()

	var overdue []uint64
	for seq, out := range p.unacked {
		if !out.due.After(now) {
			overdue = append(overdue, seq)
		}
	}
	sort.Slice(overdue, func(i, j int) bool { return overdue[i] < overdue[j] })
	frames := append([]SessFrame(nil), p.urgent...)
	p.urgent = p.urgent[:0]
	for _, seq := range overdue {
		out := p.unacked[seq]
		out.attempts++
		out.due = now.Add(s.backoff(out.attempts))
		s.stats.AckTimeouts++
		s.stats.Retransmits++
		p.retransmits++
		frames = append(frames, s.dataFrame(p, seq, out.batch))
	}
	if p.ackN > 0 && !p.ackSince.Add(s.ackDelay).After(now) {
		frames = append(frames, s.owedFrame(p))
	}

	var next time.Time
	if p.ackN > 0 {
		next = p.ackSince.Add(s.ackDelay)
	}
	for _, out := range p.unacked {
		if next.IsZero() || out.due.Before(next) {
			next = out.due
		}
	}
	if !next.IsZero() {
		s.arm(to, p, next)
	}
	s.mu.Unlock()

	for _, f := range frames {
		s.link.SendFrame(to, f)
	}
}

// recvLoop feeds onFrame from RecvFrame: the whole ingress of a link that
// cannot push, and for one that can, the frames it queued before the
// session bound it. It exits on link closure or session Close — the former
// matters for links whose endpoints are owned elsewhere (SessMesh) and
// outlive the session.
func (s *Session) recvLoop() {
	defer s.wg.Done()
	defer close(s.recvDone)
	for {
		select {
		case f, ok := <-s.link.RecvFrame():
			if !ok || !s.onFrame(f) {
				return
			}
		case <-s.done:
			return
		}
	}
}

// onFrame handles one inbound frame: it retires what the frame
// acknowledges, and for a data frame runs the dedup window, hands the
// batch to the app and books the ack it now owes. It reports false once
// the session is closed.
//
// It runs on whatever goroutine the link received the frame on, so it
// holds s.mu briefly, never waits for the app and never writes to the
// link. If acking waited on the app consuming RecvBatch, two nodes could
// deadlock — each blocked in a send with a full window, neither draining
// its inbox, so neither's acks ever arrive: a batch the app is not ready
// for queues in pending, unbounded (the usual reliable-channel
// idealization — a permanently stalled consumer costs memory, not
// cluster-wide deadlock). And the acks that must leave at once are
// queued for the peer's timer goroutine (see sessPeer.urgent).
func (s *Session) onFrame(f SessFrame) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	p := s.peer(f.From)
	if f.Boot < p.recvBoot {
		// A frame from a dead incarnation of the peer; its session is
		// gone, so there is no point acking it either.
		if f.Seq != 0 {
			s.stats.StaleBootDrops++
		}
		return true
	}
	if f.Boot > p.recvBoot {
		p.reborn(f.Boot)
	}
	if f.ToBoot == s.cfg.Boot {
		if f.Ack != 0 {
			p.retire(f.Ack, f.AckRun)
		}
	} else if f.ToBoot != 0 && f.Seq != 0 {
		// Addressed to a previous life of this node, which may have
		// consumed it already: refuse it, and tell the sender who is here
		// now (a bare frame — its Boot is the message), so it stops
		// re-sending what died with that life.
		s.stats.StaleBootDrops++
		s.sendSoon(f.From, p, SessFrame{From: s.self, Boot: s.cfg.Boot, ToBoot: p.recvBoot})
		return true
	}
	if f.Seq == 0 {
		return true // pure ack
	}
	dup := f.Seq <= p.recvHigh
	if !dup {
		_, dup = p.recvSeen[f.Seq]
	}
	if dup {
		// The original ack was lost (or is still owed) and the sender is
		// retransmitting: answer at once.
		s.stats.DupDrops++
		p.dupDrops++
		s.sendSoon(f.From, p, s.ackFrame(p, f.Seq, 1))
		return true
	}
	p.recvSeen[f.Seq] = struct{}{}
	for {
		if _, ok := p.recvSeen[p.recvHigh+1]; !ok {
			break
		}
		delete(p.recvSeen, p.recvHigh+1)
		p.recvHigh++
	}
	s.deliver(f.Batch)

	// Book the ack. A frame that does not extend the owed run marks a
	// loss or a reordering: the run and the frame are acked at once.
	gap := p.ackN > 0 && f.Seq != p.ackHi+1
	if gap {
		s.sendSoon(f.From, p, s.owedFrame(p))
	}
	if p.ackN == 0 {
		p.ackSince = time.Now()
	}
	p.ackHi = f.Seq
	p.ackN++
	if gap || p.ackN >= s.ackEvery {
		s.sendSoon(f.From, p, s.owedFrame(p))
	} else if p.ackN == 1 {
		s.arm(f.From, p, p.ackSince.Add(s.ackDelay))
	}
	return true
}

// sendSoon queues pure ack a for peer to's timer goroutine and arms the
// timer for now. The caller holds s.mu.
func (s *Session) sendSoon(to ocube.Pos, p *sessPeer, a SessFrame) {
	p.urgent = append(p.urgent, a)
	s.arm(to, p, time.Now())
}

// deliver hands a received batch to the app: straight onto out when
// nothing received earlier is still waiting and out has room, else
// through pending and deliverLoop, which keeps arrival order. The caller
// holds s.mu.
func (s *Session) deliver(batch []core.Envelope) {
	if s.outClosed {
		return // the link closed under the session; its last frames raced the close
	}
	if len(s.pending) == 0 && !s.delivering {
		select {
		case s.out <- batch:
			return
		default:
		}
	}
	s.pending = append(s.pending, batch)
	select {
	case s.pendingC <- struct{}{}:
	default: // deliverLoop is already awake
	}
}

// reborn notes that the peer now runs incarnation boot. Its sequence
// space restarted, so the dedup window restarts too; the acks owed to
// the previous incarnation have no one to go to; and the frames it never
// acknowledged were addressed to it and died with it — it may have
// consumed them, so they must not reach its successor. A first contact
// (no incarnation known before) abandons nothing.
func (p *sessPeer) reborn(boot uint64) {
	if p.recvBoot != 0 {
		for seq := range p.unacked {
			p.retireOne(seq)
		}
	}
	p.recvBoot = boot
	p.recvHigh = 0
	p.recvSeen = make(map[uint64]struct{})
	p.ackN = 0
}

// retire drops the unacked frames hi-run through hi, which an ack for
// this incarnation named, and frees their window slots.
func (p *sessPeer) retire(hi uint64, run uint32) {
	lo := hi - min(uint64(run), hi-1)
	if hi-lo >= uint64(len(p.unacked)) {
		// A run longer than what is in flight (a forged or garbled frame
		// at worst): walk the frames, not the run.
		for seq := range p.unacked {
			if lo <= seq && seq <= hi {
				p.retireOne(seq)
			}
		}
		return
	}
	for seq := lo; seq <= hi; seq++ {
		p.retireOne(seq)
	}
}

func (p *sessPeer) retireOne(seq uint64) {
	if _, ok := p.unacked[seq]; !ok {
		return
	}
	delete(p.unacked, seq)
	select {
	case <-p.sendSlot:
	default:
	}
}

// deliverLoop hands over the batches that could not go straight onto out:
// it blocks on the app so that onFrame never has to. It closes out when
// the link or the session closes.
func (s *Session) deliverLoop() {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		s.outClosed = true
		s.mu.Unlock()
		close(s.out)
	}()
	// drain empties pending, in order, until nothing is left; it reports
	// false if the session closed first.
	drain := func() bool {
		for {
			s.mu.Lock()
			batches := s.pending
			s.pending = nil
			s.delivering = len(batches) > 0
			s.mu.Unlock()
			if len(batches) == 0 {
				return true
			}
			for _, b := range batches {
				select {
				case s.out <- b:
				case <-s.done:
					return false
				}
			}
		}
	}
	for {
		select {
		case <-s.pendingC:
			if !drain() {
				return
			}
		case <-s.recvDone:
			drain() // the link closed; hand over what it delivered last
			return
		case <-s.done:
			return
		}
	}
}

// RecvBatch implements BatchTransport.
func (s *Session) RecvBatch() <-chan []core.Envelope { return s.out }

// Close implements BatchTransport: it stops retransmission, closes the
// underlying link, and unblocks senders and receivers.
func (s *Session) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	for _, p := range s.peers {
		if p.timer != nil {
			p.timer.Stop()
		}
	}
	s.mu.Unlock()
	close(s.done)
	if s.unpush != nil {
		s.unpush()
	}
	err := s.link.Close()
	s.wg.Wait()
	return err
}

var _ BatchTransport = (*Session)(nil)

// SessMesh is the in-memory FrameLink switchboard connecting the nodes
// of a single-process cluster, with an optional deterministic drop hook
// so session tests inject loss without a real lossy network.
type SessMesh struct {
	mu     sync.Mutex
	boxes  []chan SessFrame
	sinks  []*func(SessFrame) // per node: where a bound session takes its frames (see framePusher)
	closed bool
	// Drop, when set, is consulted for every frame; returning true loses
	// it. Set before any traffic flows.
	Drop func(to ocube.Pos, f SessFrame) bool
}

// NewSessMesh builds a mesh of n endpoints with the given per-node frame
// buffer.
func NewSessMesh(n, buffer int) (*SessMesh, error) {
	if n <= 0 {
		return nil, fmt.Errorf("transport: mesh size %d", n)
	}
	if buffer < 1 {
		buffer = 1024
	}
	m := &SessMesh{boxes: make([]chan SessFrame, n), sinks: make([]*func(SessFrame), n)}
	for i := range m.boxes {
		m.boxes[i] = make(chan SessFrame, buffer)
	}
	return m, nil
}

// Endpoint returns node i's frame link.
func (m *SessMesh) Endpoint(i ocube.Pos) FrameLink {
	return &sessMeshEndpoint{mesh: m, self: i}
}

// Close closes every inbox.
func (m *SessMesh) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil
	}
	m.closed = true
	for _, box := range m.boxes {
		close(box)
	}
	return nil
}

// errFrameLost reports a frame the mesh dropped (loss injection or a full
// inbox) — exactly the condition the session's retransmission repairs.
var errFrameLost = errors.New("transport: frame lost")

func (m *SessMesh) send(to ocube.Pos, f SessFrame) error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return ErrClosed
	}
	if !to.Valid(len(m.boxes)) {
		m.mu.Unlock()
		return fmt.Errorf("transport: destination %v out of range", to)
	}
	if m.Drop != nil && m.Drop(to, f) {
		m.mu.Unlock()
		return errFrameLost
	}
	if sink := m.sinks[to]; sink != nil {
		// The receiving session runs on the sender's goroutine, outside
		// the mesh lock: frames to different nodes do not wait for each
		// other.
		m.mu.Unlock()
		(*sink)(f)
		return nil
	}
	defer m.mu.Unlock()
	select {
	case m.boxes[to] <- f:
		return nil
	default:
		return errFrameLost
	}
}

type sessMeshEndpoint struct {
	mesh *SessMesh
	self ocube.Pos
}

func (e *sessMeshEndpoint) SendFrame(to ocube.Pos, f SessFrame) error { return e.mesh.send(to, f) }

func (e *sessMeshEndpoint) RecvFrame() <-chan SessFrame { return e.mesh.boxes[e.self] }

func (e *sessMeshEndpoint) Close() error { return nil } // owned by the mesh

func (e *sessMeshEndpoint) pushTo(sink func(SessFrame)) (stop func()) {
	m := e.mesh
	m.mu.Lock()
	defer m.mu.Unlock()
	m.sinks[e.self] = &sink
	return func() {
		m.mu.Lock()
		defer m.mu.Unlock()
		if m.sinks[e.self] == &sink { // not the next session's
			m.sinks[e.self] = nil
		}
	}
}

var (
	_ FrameLink   = (*sessMeshEndpoint)(nil)
	_ framePusher = (*sessMeshEndpoint)(nil)
)
