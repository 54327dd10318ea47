package transport

import (
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/ocube"
)

// Ack-discipline tests: acks ride on data frames, and travel alone only
// on the count trigger, the delay or a duplicate. The SessMesh
// Drop hook doubles as the observer of what actually crossed the link.

// frameLog records every frame the mesh carried; drop, when set, decides
// which ones it loses.
type frameLog struct {
	mu     sync.Mutex
	frames []loggedFrame
	drop   func(to ocube.Pos, f SessFrame) bool
}

type loggedFrame struct {
	to ocube.Pos
	SessFrame
}

func (l *frameLog) hook(to ocube.Pos, f SessFrame) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.frames = append(l.frames, loggedFrame{to, f})
	return l.drop != nil && l.drop(to, f)
}

func (l *frameLog) pureAcks() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	for _, f := range l.frames {
		if f.Seq == 0 {
			n++
		}
	}
	return n
}

func recvOne(t *testing.T, s *Session) []core.Envelope {
	t.Helper()
	select {
	case b, ok := <-s.RecvBatch():
		if !ok {
			t.Fatal("receive channel closed")
		}
		return b
	case <-time.After(10 * time.Second):
		t.Fatal("timed out waiting for a batch")
	}
	return nil
}

// waitQuiet waits until neither session has a frame in flight.
func waitQuiet(t *testing.T, sessions ...*Session) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		inFlight := 0
		for _, s := range sessions {
			s.mu.Lock()
			inFlight += s.m.Unacked()
			s.mu.Unlock()
		}
		if inFlight == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d frames still unacknowledged", inFlight)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSessionRequestReplySendsNoPureAcks: when every frame is answered by
// a frame, every ack finds a ride. The long RTO keeps the delay trigger
// out of the picture for the length of the exchange.
func TestSessionRequestReplySendsNoPureAcks(t *testing.T) {
	eachIngress(t, testSessionRequestReplySendsNoPureAcks)
}

func testSessionRequestReplySendsNoPureAcks(t *testing.T, wrap linkWrap) {
	mesh, err := NewSessMesh(2, 256)
	if err != nil {
		t.Fatal(err)
	}
	var log frameLog
	mesh.Drop = log.hook
	a, b := sessPairOver(t, wrap, mesh, SessionConfig{RTO: 2 * time.Second, MaxRTO: 4 * time.Second})

	const n = 100
	for i := 0; i < n; i++ {
		if err := a.SendBatch(1, payload(i)); err != nil {
			t.Fatal(err)
		}
		recvOne(t, b)
		if err := b.SendBatch(0, payload(i)); err != nil {
			t.Fatal(err)
		}
		recvOne(t, a)
	}
	if got := log.pureAcks(); got != 0 {
		t.Errorf("%d pure ack frames crossed the link during request/reply, want 0", got)
	}
	as, bs := a.Stats(), b.Stats()
	if as.AckFrames != 0 || bs.AckFrames != 0 {
		t.Errorf("AckFrames = %d and %d, want 0", as.AckFrames, bs.AckFrames)
	}
	// b acked all n requests on its replies; a acked every reply but the
	// last on its next request.
	if bs.AcksPiggybacked != n || as.AcksPiggybacked != n-1 {
		t.Errorf("AcksPiggybacked = %d (a) and %d (b), want %d and %d", as.AcksPiggybacked, bs.AcksPiggybacked, n-1, n)
	}
	if as.Retransmits != 0 || bs.Retransmits != 0 {
		t.Errorf("retransmits without loss: a=%+v b=%+v", as, bs)
	}
}

// TestSessionOneWayBurstAckedByCount: with nothing to ride, acks leave
// every ackEvery (window/4) frames, so a one-way burst of ten windows never waits
// for the ack delay (500 ms here) — the count keeps the window open.
//
// Restated when sends stopped pacing themselves (SendBatch no longer
// waits for a window slot): all 640 batches are accepted at once, nine
// windows of them into the backlog, and what an ack releases leaves with
// whoever writes to the link next — the timer or a SendBatch caller — so
// two writers can put one peer's frames on the link out of order. The
// test therefore does not want exactly one pure ack per ackEvery frames.
// It wants what the count trigger is for: the burst goes through without
// the ack delay and without a retransmission, every batch once, on no
// fewer than n/16 pure acks and no more than one per four frames.
func TestSessionOneWayBurstAckedByCount(t *testing.T) {
	eachIngress(t, testSessionOneWayBurstAckedByCount)
}

func testSessionOneWayBurstAckedByCount(t *testing.T, wrap linkWrap) {
	mesh, err := NewSessMesh(2, 4096)
	if err != nil {
		t.Fatal(err)
	}
	var log frameLog
	mesh.Drop = log.hook
	a, b := sessPairOver(t, wrap, mesh, SessionConfig{RTO: 2 * time.Second, MaxRTO: 4 * time.Second})

	n := 10 * window
	start := time.Now()
	for i := 0; i < n; i++ {
		if err := a.SendBatch(1, payload(i)); err != nil {
			t.Fatal(err)
		}
	}
	got := collect(t, b, n)
	if took := time.Since(start); took > 400*time.Millisecond {
		t.Errorf("burst of %d took %v: the window waited on the ack delay", n, took)
	}
	for i := 0; i < n; i++ {
		if got[uint64(i+1)] != 1 {
			t.Fatalf("batch %d delivered %d times", i, got[uint64(i+1)])
		}
	}
	waitQuiet(t, a) // the last few acks do wait out the delay: nothing follows them
	if acks := log.pureAcks(); acks < n/ackEvery || acks > n/4 {
		t.Errorf("%d pure ack frames for %d one-way frames, want %d (one per %d) to %d", acks, n, n/ackEvery, ackEvery, n/4)
	}
	if st := a.Stats(); st.Retransmits != 0 {
		t.Errorf("retransmits without loss: %+v", st)
	}
}

// TestSessionLostPiggybackCostsOneRetransmit drops the reply that carried
// the ack of a request. The requester retransmits once, the replier
// dup-drops it and re-acks at once with a pure ack; both batches are
// still delivered exactly once.
func TestSessionLostPiggybackCostsOneRetransmit(t *testing.T) {
	eachIngress(t, testSessionLostPiggybackCostsOneRetransmit)
}

func testSessionLostPiggybackCostsOneRetransmit(t *testing.T, wrap linkWrap) {
	mesh, err := NewSessMesh(2, 256)
	if err != nil {
		t.Fatal(err)
	}
	var log frameLog
	dropped := false
	log.drop = func(to ocube.Pos, f SessFrame) bool {
		if to == 0 && f.Seq != 0 && f.Ack != 0 && !dropped {
			dropped = true
			return true
		}
		return false
	}
	mesh.Drop = log.hook
	a, b := sessPairOver(t, wrap, mesh, SessionConfig{RTO: 50 * time.Millisecond})

	if err := a.SendBatch(1, payload(0)); err != nil {
		t.Fatal(err)
	}
	recvOne(t, b)
	if err := b.SendBatch(0, payload(1)); err != nil {
		t.Fatal(err)
	}
	if got := recvOne(t, a); got[0].Instance != 2 {
		t.Fatalf("a received %+v, want the reply", got)
	}
	waitQuiet(t, a, b)

	as, bs := a.Stats(), b.Stats()
	log.mu.Lock()
	if !dropped {
		t.Error("the reply never carried an ack")
	}
	log.mu.Unlock()
	if as.Retransmits != 1 || bs.DupDrops != 1 {
		t.Errorf("a.Retransmits = %d, b.DupDrops = %d, want 1 and 1", as.Retransmits, bs.DupDrops)
	}
	if bs.AckFrames != 1 {
		t.Errorf("b sent %d pure acks, want the one immediate re-ack", bs.AckFrames)
	}
	if bs.Retransmits != 1 {
		t.Errorf("b.Retransmits = %d, want 1 (the dropped reply itself)", bs.Retransmits)
	}
	for _, s := range []*Session{a, b} {
		select {
		case extra := <-s.RecvBatch():
			t.Errorf("duplicate delivery: %+v", extra)
		default:
		}
	}
}

// TestSessionRebirthDiscardsOwedAcks: acks owed to a peer's previous
// incarnation die with it — the next frame to the reborn peer
// acknowledges only what the new incarnation sent, under its boot.
func TestSessionRebirthDiscardsOwedAcks(t *testing.T) {
	eachIngress(t, testSessionRebirthDiscardsOwedAcks)
}

func testSessionRebirthDiscardsOwedAcks(t *testing.T, wrap linkWrap) {
	mesh, err := NewSessMesh(2, 256)
	if err != nil {
		t.Fatal(err)
	}
	var log frameLog
	mesh.Drop = log.hook
	// The long RTO keeps owed acks owed until a data frame collects them,
	// and keeps retransmissions (which are re-acked at once) out.
	slow := SessionConfig{RTO: 2 * time.Second, MaxRTO: 4 * time.Second}
	b := NewSession(1, wrap(mesh.Endpoint(1)), slow)
	t.Cleanup(func() {
		b.Close()
		mesh.Close()
	})

	slow.Boot = 1
	a1 := NewSession(0, wrap(mesh.Endpoint(0)), slow)
	for i := 0; i < 3; i++ {
		if err := a1.SendBatch(1, payload(i)); err != nil {
			t.Fatal(err)
		}
	}
	collect(t, b, 3)
	a1.Close()

	slow.Boot = 2
	a2 := NewSession(0, wrap(mesh.Endpoint(0)), slow)
	t.Cleanup(func() { a2.Close() })
	if err := a2.SendBatch(1, payload(10)); err != nil {
		t.Fatal(err)
	}
	collect(t, b, 1)
	if err := b.SendBatch(0, payload(20)); err != nil {
		t.Fatal(err)
	}
	recvOne(t, a2)
	waitQuiet(t, a2)

	log.mu.Lock()
	defer log.mu.Unlock()
	acked := 0
	for _, f := range log.frames {
		if f.to != 0 || f.Ack == 0 && f.AckMask == 0 {
			continue
		}
		acked++
		if f.ToBoot != 2 || f.Ack != 1 || f.AckMask != 0 {
			t.Errorf("b acknowledged %+v, want only seq 1 of boot 2", f.SessFrame)
		}
	}
	if acked != 1 {
		t.Errorf("b sent %d acknowledging frames, want 1", acked)
	}
}
