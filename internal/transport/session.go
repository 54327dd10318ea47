package transport

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/ocube"
)

// This file is the live driver of the session discipline in machine.go:
// a Session puts one Machine under a mutex, the wall clock and one
// runtime timer, and moves its frames over any FrameLink — the in-memory
// SessMesh in one process and SessTCP for multi-process deployments, where a
// dropped connection is repaired by the link's lazy redial and the
// retransmit timer replays everything the drop swallowed.

// FrameLink moves session frames between nodes: the unreliable substrate
// a Session builds its reliable channel on.
type FrameLink interface {
	// SendFrame transmits f to node to. An error means the frame may be
	// lost — the session retries. It does not wait for the peer: a session
	// calls it from its node's step (SessTCP dials in the background).
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

// Session is a reliable BatchTransport over an unreliable FrameLink:
// exactly-once delivery of every batch that SendBatch accepted. The
// discipline is the Machine's; the Session adds what a live node needs
// around it — the lock, the clock, the timer, and the hand-over of
// received batches to an application that may be slow.
type Session struct {
	link  FrameLink
	start time.Time // origin of the machine's clock

	mu     sync.Mutex
	m      *Machine
	closed bool
	// urgent holds the frames onFrame wants sent — acks for a duplicate, a
	// gap, ackEvery owed, a stale ToBoot, and backlog an ack let into the
	// window. onFrame may be running on the link's reader, which must not
	// write to the link, so they leave with whoever comes next: the timer,
	// armed for now, or a SendBatch caller.
	urgent []Outgoing
	// timer is the session's one timer: it serves the ack delay, the
	// earliest retransmission and the urgent frames alike. timerAt is when
	// it is set to fire, on the machine's clock; Never when it is not armed.
	timer   *time.Timer
	timerAt time.Duration
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
	s := &Session{
		link:     link,
		start:    time.Now(),
		m:        NewMachine(self, cfg, rand.New(rand.NewSource(int64(self)*2654435761+1))),
		timerAt:  Never,
		out:      make(chan []core.Envelope, 1024),
		pendingC: make(chan struct{}, 1),
		recvDone: make(chan struct{}),
		done:     make(chan struct{}),
	}
	s.timer = time.AfterFunc(Never, s.onTimer) // aim sets it
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
	return s.m.Stats()
}

// PeerStats returns a snapshot of the per-peer counter breakdown. The
// per-peer values sum to the aggregate Stats() counters taken under the
// same lock.
func (s *Session) PeerStats() map[ocube.Pos]PeerStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.m.PeerStats()
}

// SendBatch implements BatchTransport: it enqueues the batch for
// exactly-once delivery and returns without waiting for the peer — a
// batch beyond the peer's in-flight window waits inside the machine, not
// in the caller. The batch is copied before returning, so the caller may
// reuse its buffer. The copy is made with room behind it for the receipts
// the batch will earn (Machine.Frame), which onFrame queues for the app
// long after this call: the one allocation serves both.
func (s *Session) SendBatch(to ocube.Pos, batch []core.Envelope) error {
	if len(batch) == 0 {
		return nil
	}
	if len(batch) > MaxBatch {
		return fmt.Errorf("transport: batch of %d envelopes exceeds the frame cap %d", len(batch), MaxBatch)
	}
	room := len(batch)
	for _, env := range batch {
		if Receiptable(env.Msg) {
			room++
		}
	}
	owned := make([]core.Envelope, len(batch), room)
	copy(owned, batch)

	var buf [4]Outgoing // the urgent frames, if any, and this one: no allocation in the common case
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	now := time.Since(s.start)
	frames := s.m.Send(now, to, owned, s.takeUrgent(buf[:0]))
	s.aim(now)
	s.mu.Unlock()
	s.write(frames)
	return nil
}

// takeUrgent moves the urgent frames onto out. The caller holds s.mu and
// writes them once it has let go.
func (s *Session) takeUrgent(out []Outgoing) []Outgoing {
	out = append(out, s.urgent...)
	clear(s.urgent)
	s.urgent = s.urgent[:0]
	return out
}

// write puts frames on the link; the caller has let go of s.mu and is not
// the link's reader. A send error means the frame may be lost (e.g. the
// TCP peer is down); the retransmit timer repairs it after the link re-dials.
func (s *Session) write(frames []Outgoing) {
	for _, o := range frames {
		s.link.SendFrame(o.To, o.Frame)
	}
}

// aim makes sure the timer fires no later than the machine's deadline,
// and at once while urgent frames wait. A timer already set to fire
// earlier is left alone — onTimer re-aims for whatever is next — so
// steady traffic resets the timer about once per RTO, not per frame. The
// caller holds s.mu.
func (s *Session) aim(now time.Duration) {
	at := s.m.Deadline()
	if len(s.urgent) > 0 {
		at = now
	}
	if at < s.timerAt {
		s.timerAt = at
		s.timer.Reset(at - now)
	}
}

// onTimer is the session's timer firing: it sends the urgent frames,
// lets the machine re-send what is overdue and release the acks that have
// waited out their delay, and re-aims for whichever comes next.
func (s *Session) onTimer() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.timerAt = Never
	var buf [8]Outgoing
	now := time.Since(s.start)
	frames := s.m.Tick(now, s.takeUrgent(buf[:0]))
	s.aim(now)
	s.mu.Unlock()
	s.write(frames)
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

// onFrame steps the machine with one inbound frame and hands what it
// yields to the app: the receipts its ack produced, as a batch of their
// own, then the batch it carried. It reports false once the session is
// closed.
//
// It runs on whatever goroutine the link received the frame on, so it
// holds s.mu briefly, never waits for the app and never writes to the
// link. If acking waited on the app consuming RecvBatch, two nodes could
// stop each other for good — each with a full window, neither draining
// its inbox, so neither's acks ever arrive: a batch the app is not ready
// for queues in pending, unbounded (the usual reliable-channel
// idealization — a permanently stalled consumer costs memory, not
// cluster-wide deadlock). And the frames the machine wants sent are
// queued for whoever may write to the link (see Session.urgent).
func (s *Session) onFrame(f SessFrame) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	now := time.Since(s.start)
	var batch, receipts []core.Envelope
	batch, receipts, s.urgent = s.m.Frame(now, f, s.urgent, nil)
	if len(receipts) > 0 {
		s.deliver(receipts)
	}
	if batch != nil {
		s.deliver(batch)
	}
	s.aim(now)
	return true
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
// underlying link, and unblocks receivers.
func (s *Session) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.timer.Stop()
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
