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
// saves the hop through RecvFrame's channel and the session's loop.
// NewSession discovers it; a wrapper that only forwards the FrameLink
// methods hides it, and its session's loop reads RecvFrame instead.
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
// received batches to an application that may be slow. It is the machine
// under a mutex plus one goroutine, loop, that owns every wait: the
// timer, the app taking a batch it was not ready for, and the frames of a
// link that cannot push.
type Session struct {
	link  FrameLink
	start time.Time // origin of the machine's clock

	mu     sync.Mutex
	m      *Machine
	closed bool
	// urgent holds the frames the machine wants sent that no SendBatch
	// caller is writing: those onFrame yields — acks for a duplicate, a
	// gap, ackEvery owed, a stale ToBoot, and backlog an ack let into the
	// window — and those a timer fire re-sends. onFrame may be running on
	// the link's reader, which must not write to the link, so they leave
	// with whoever comes next: the loop, woken for them, or a SendBatch
	// caller.
	urgent []Outgoing
	// timer is the session's one timer, set where the machine aims it
	// (Machine.Aim): it serves the ack delay and the earliest
	// retransmission alike.
	timer *time.Timer
	// A received batch goes straight onto out when nothing is ahead of
	// it. When the app is behind (out is full, or older batches are still
	// waiting) it joins pending, whose oldest the loop offers the app
	// until it is taken. outClosed is set before out is closed.
	pending   [][]core.Envelope
	outClosed bool

	// out is buffered so that a consumer busy with one batch does not push
	// every arrival onto the pending path; its size only decides when
	// arrivals start to queue in pending instead, nothing is ever dropped.
	out    chan []core.Envelope
	wake   chan struct{} // tells the loop urgent or pending grew; cap 1, best-effort
	done   chan struct{}
	unpush func() // undoes the link's pushTo; nil for a link that cannot push
	wg     sync.WaitGroup
}

// NewSession wraps link in a reliable session for node self. The session
// owns the link: Close closes it.
func NewSession(self ocube.Pos, link FrameLink, cfg SessionConfig) *Session {
	s := &Session{
		link:  link,
		start: time.Now(),
		m:     NewMachine(self, cfg, rand.New(rand.NewSource(int64(self)*2654435761+1))),
		timer: time.NewTimer(Never), // aim sets it
		out:   make(chan []core.Envelope, 1024),
		wake:  make(chan struct{}, 1),
		done:  make(chan struct{}),
	}
	s.wg.Add(1)
	go s.loop()
	if pl, ok := link.(framePusher); ok {
		// The loop still reads RecvFrame: it takes what the link queued
		// before this call and sees the link close.
		s.unpush = pl.pushTo(s.onFrame)
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

// aim sets the timer where the machine aims it. The caller holds s.mu.
func (s *Session) aim(now time.Duration) {
	if at, ok := s.m.Aim(); ok {
		s.timer.Reset(at - now)
	}
}

// poke wakes the loop to look at urgent and pending again; it never
// blocks.
func (s *Session) poke() {
	select {
	case s.wake <- struct{}{}:
	default: // the loop is already due to look
	}
}

// loop is the session's one goroutine. Each turn it writes the urgent
// frames, then waits for one of: a frame on RecvFrame (the whole ingress
// of a link that cannot push; for one that can, what it queued before the
// session bound it), the app taking the oldest pending batch, the timer,
// whose Tick queues what it re-sends as urgent, a wake, or Close. It
// closes out as it returns: on Close, or once the link has closed and the
// app has taken every batch the link delivered. The link's closing
// matters for links whose endpoints are owned elsewhere (SessMesh) and
// outlive the session.
//
// The loop is serial: a write that stalls (SessTCP bounds one to a
// connected peer by writeTimeout) holds up the loop's next turn for as
// long.
func (s *Session) loop() {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		s.outClosed = true
		s.mu.Unlock()
		close(s.out)
	}()
	recv := s.link.RecvFrame()
	var buf [8]Outgoing
	for {
		var (
			out  chan<- []core.Envelope // nil, so never ready, while nothing is pending
			next []core.Envelope
		)
		s.mu.Lock()
		frames := s.takeUrgent(buf[:0])
		if len(s.pending) > 0 {
			out, next = s.out, s.pending[0]
		}
		s.mu.Unlock()
		s.write(frames)
		if recv == nil && out == nil {
			return // the link closed, and the app has what it delivered
		}
		select {
		case f, ok := <-recv:
			if !ok {
				recv = nil
				continue
			}
			s.onFrame(f)
		case out <- next:
			s.mu.Lock()
			s.pending[0] = nil
			s.pending = s.pending[1:]
			s.mu.Unlock()
		case <-s.timer.C:
			s.mu.Lock()
			now := time.Since(s.start)
			s.urgent = s.m.Tick(now, s.urgent)
			s.aim(now)
			s.mu.Unlock()
		case <-s.wake:
		case <-s.done:
			return
		}
	}
}

// onFrame steps the machine with one inbound frame and hands what it
// yields to the app: the receipts its ack produced, as a batch of their
// own, then the batch it carried.
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
func (s *Session) onFrame(f SessFrame) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
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
	if len(s.urgent) > 0 {
		s.poke()
	}
	s.aim(now)
}

// deliver hands a received batch to the app: straight onto out when
// nothing received earlier is still waiting and out has room, else
// through pending, which the loop hands over in arrival order. The caller
// holds s.mu.
func (s *Session) deliver(batch []core.Envelope) {
	if s.outClosed {
		return // the link closed under the session; its last frames raced the close
	}
	if len(s.pending) == 0 {
		select {
		case s.out <- batch:
			return
		default:
		}
	}
	s.pending = append(s.pending, batch)
	s.poke()
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
