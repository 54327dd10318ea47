package transport

import (
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/ocube"
)

// Session-layer tests: the reliable channel the paper assumes (Section 2)
// must come out of a lossy substrate via retransmission and dedup, and
// the SessionStats counters must account for the repair work.

// A session takes its frames one of two ways: an in-tree link calls it
// on the goroutine that read the frame, any other link is read through
// RecvFrame by the session's recvLoop. Both end in onFrame, and every test
// of the session contract in this package runs over both.
type linkWrap func(FrameLink) FrameLink

// pullOnly forwards the three FrameLink methods and nothing else, so
// NewSession cannot see that the link underneath could push — what any
// wrapper written outside this package (the bench's link tap) does.
type pullOnly struct{ FrameLink }

func eachIngress(t *testing.T, test func(*testing.T, linkWrap)) {
	t.Run("push", func(t *testing.T) { test(t, func(l FrameLink) FrameLink { return l }) })
	t.Run("pull", func(t *testing.T) { test(t, func(l FrameLink) FrameLink { return pullOnly{l} }) })
}

// TestIngressPathsDiffer keeps eachIngress honest: the in-tree links are
// bound for pushing, a wrapped one is not.
func TestIngressPathsDiffer(t *testing.T) {
	mesh, err := NewSessMesh(2, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer mesh.Close()
	links := map[string]func() FrameLink{
		"SessMesh endpoint": func() FrameLink { return mesh.Endpoint(0) },
		"SessTCP": func() FrameLink {
			l, err := NewSessTCP(0, map[ocube.Pos]string{0: "127.0.0.1:0"})
			if err != nil {
				t.Fatal(err)
			}
			return l
		},
	}
	for name, open := range links {
		wrapped := NewSession(0, pullOnly{open()}, SessionConfig{})
		bare := NewSession(0, open(), SessionConfig{})
		if wrapped.unpush != nil {
			t.Errorf("%s behind a RecvFrame-only wrapper was bound for pushing", name)
		}
		if bare.unpush == nil {
			t.Errorf("%s was not bound for pushing", name)
		}
		wrapped.Close()
		bare.Close()
	}
}

func sessPairOver(t *testing.T, wrap linkWrap, mesh *SessMesh, cfg SessionConfig) (*Session, *Session) {
	t.Helper()
	a := NewSession(0, wrap(mesh.Endpoint(0)), cfg)
	b := NewSession(1, wrap(mesh.Endpoint(1)), cfg)
	t.Cleanup(func() {
		a.Close()
		b.Close()
		mesh.Close()
	})
	return a, b
}

// narrow lowers the window s sends within to n frames, so a test reaches
// the backlog with a few batches.
func (s *Session) narrow(n uint64) {
	s.mu.Lock()
	s.m.sendSpan = n
	s.mu.Unlock()
}

func payload(i int) []core.Envelope {
	return []core.Envelope{{Instance: uint64(i + 1), Msg: core.Message{Kind: core.KindRequest, From: 0, To: 1}}}
}

// collect drains n batches from s, failing the test on timeout, and
// returns the Instance tags seen (the per-batch identity in these tests).
func collect(t *testing.T, s *Session, n int) map[uint64]int {
	t.Helper()
	got := make(map[uint64]int)
	deadline := time.After(10 * time.Second)
	for i := 0; i < n; i++ {
		select {
		case batch, ok := <-s.RecvBatch():
			if !ok {
				t.Fatalf("receive channel closed after %d of %d batches", i, n)
			}
			for _, env := range batch {
				got[env.Instance]++
			}
		case <-deadline:
			t.Fatalf("timed out after %d of %d batches", i, n)
		}
	}
	return got
}

// TestSessionExactlyOnceUnderLoss drops every third data frame and checks
// every batch still arrives exactly once, paid for in retransmissions.
func TestSessionExactlyOnceUnderLoss(t *testing.T) { eachIngress(t, testSessionExactlyOnceUnderLoss) }

func testSessionExactlyOnceUnderLoss(t *testing.T, wrap linkWrap) {
	mesh, err := NewSessMesh(2, 256)
	if err != nil {
		t.Fatal(err)
	}
	var dropMu sync.Mutex
	nData := 0
	mesh.Drop = func(to ocube.Pos, f SessFrame) bool {
		if f.Seq == 0 {
			return false // acks pass
		}
		dropMu.Lock()
		defer dropMu.Unlock()
		nData++
		return nData%3 == 0
	}
	a, b := sessPairOver(t, wrap, mesh, SessionConfig{RTO: 5 * time.Millisecond, MaxRTO: 50 * time.Millisecond})

	const n = 20
	for i := 0; i < n; i++ {
		if err := a.SendBatch(1, payload(i)); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	got := collect(t, b, n)
	for i := 0; i < n; i++ {
		if got[uint64(i+1)] != 1 {
			t.Errorf("batch %d delivered %d times, want exactly once", i, got[uint64(i+1)])
		}
	}
	st := a.Stats()
	if st.Frames != n {
		t.Errorf("Frames = %d, want %d", st.Frames, n)
	}
	if st.Retransmits == 0 || st.AckTimeouts == 0 {
		t.Errorf("loss of a third of the frames repaired without retransmits: %+v", st)
	}
}

// TestSessionAckLossCausesDupDrops drops every second pure ack: the
// sender keeps retransmitting already-delivered frames, and the receiver
// must discard those duplicates (counting them) rather than re-deliver.
func TestSessionAckLossCausesDupDrops(t *testing.T) { eachIngress(t, testSessionAckLossCausesDupDrops) }

func testSessionAckLossCausesDupDrops(t *testing.T, wrap linkWrap) {
	mesh, err := NewSessMesh(2, 256)
	if err != nil {
		t.Fatal(err)
	}
	var dropMu sync.Mutex
	nAcks := 0
	mesh.Drop = func(to ocube.Pos, f SessFrame) bool {
		if f.Seq != 0 {
			return false // data passes
		}
		dropMu.Lock()
		defer dropMu.Unlock()
		nAcks++
		return nAcks%2 == 1
	}
	a, b := sessPairOver(t, wrap, mesh, SessionConfig{RTO: 5 * time.Millisecond, MaxRTO: 50 * time.Millisecond})

	const n = 10
	for i := 0; i < n; i++ {
		if err := a.SendBatch(1, payload(i)); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	got := collect(t, b, n)
	for i := 0; i < n; i++ {
		if got[uint64(i+1)] != 1 {
			t.Errorf("batch %d delivered %d times, want exactly once", i, got[uint64(i+1)])
		}
	}
	// The sender must eventually retire every frame (each retransmission
	// re-triggers an ack, and every second ack survives).
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := b.Stats()
		if st.DupDrops > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no duplicate drops recorded despite ack loss: %+v", st)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSessionWindowBounded pins the in-flight window without the wait it
// used to cost: with a window of 2 and the link black-holing data frames, five
// SendBatch calls all return at once, the link never sees a sequence
// number past 2 however often the two in flight are re-sent, and once the
// link heals all five batches arrive exactly once — the three beyond the
// window waited inside the session, not in their callers.
func TestSessionWindowBounded(t *testing.T) { eachIngress(t, testSessionWindowBounded) }

func testSessionWindowBounded(t *testing.T, wrap linkWrap) {
	mesh, err := NewSessMesh(2, 256)
	if err != nil {
		t.Fatal(err)
	}
	var dropMu sync.Mutex
	blackhole := true
	highest := uint64(0) // while black-holed
	mesh.Drop = func(to ocube.Pos, f SessFrame) bool {
		dropMu.Lock()
		defer dropMu.Unlock()
		if blackhole {
			highest = max(highest, f.Seq)
		}
		return blackhole && f.Seq != 0
	}
	a, b := sessPairOver(t, wrap, mesh, SessionConfig{RTO: 5 * time.Millisecond, MaxRTO: 20 * time.Millisecond})
	a.narrow(2)

	const n = 5
	start := time.Now()
	for i := 0; i < n; i++ {
		if err := a.SendBatch(1, payload(i)); err != nil {
			t.Fatal(err)
		}
	}
	if took := time.Since(start); took > time.Second {
		t.Fatalf("%d sends into a full window took %v: SendBatch waited for the peer", n, took)
	}
	for deadline := time.Now().Add(10 * time.Second); a.Stats().Retransmits < 4; { // the window holds through its own retransmissions
		if time.Now().After(deadline) {
			t.Fatalf("the two frames in flight are not being re-sent: %+v", a.Stats())
		}
		time.Sleep(time.Millisecond)
	}

	dropMu.Lock()
	blackhole = false
	if highest != 2 {
		t.Errorf("the link saw Seq %d with a window of 2 and nothing acknowledged", highest)
	}
	dropMu.Unlock()
	got := collect(t, b, n)
	for i := 0; i < n; i++ {
		if got[uint64(i+1)] != 1 {
			t.Errorf("batch %d delivered %d times, want exactly once", i, got[uint64(i+1)])
		}
	}
	waitQuiet(t, a)
	if st := a.Stats(); st.Frames != n {
		t.Errorf("Frames = %d, want %d", st.Frames, n)
	}
}

// TestSessionClosedSend pins the shutdown contract: SendBatch on a closed
// session reports ErrClosed.
func TestSessionClosedSend(t *testing.T) { eachIngress(t, testSessionClosedSend) }

func testSessionClosedSend(t *testing.T, wrap linkWrap) {
	mesh, err := NewSessMesh(2, 8)
	if err != nil {
		t.Fatal(err)
	}
	a := NewSession(0, wrap(mesh.Endpoint(0)), SessionConfig{})
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := a.SendBatch(1, payload(0)); err != ErrClosed {
		t.Errorf("send on closed session = %v, want ErrClosed", err)
	}
	mesh.Close()
}

// TestSessTCPRoundTrip runs the session over real loopback sockets: the
// reliable BatchTransport for multi-process deployments.
func TestSessTCPRoundTrip(t *testing.T) { eachIngress(t, testSessTCPRoundTrip) }

func testSessTCPRoundTrip(t *testing.T, wrap linkWrap) {
	addrs := reserveLoopbackAddrs(t, 2)
	l0, err := NewSessTCP(0, addrs)
	if err != nil {
		t.Fatal(err)
	}
	l1, err := NewSessTCP(1, addrs)
	if err != nil {
		l0.Close()
		t.Fatal(err)
	}

	a := NewSession(0, wrap(l0), SessionConfig{RTO: 20 * time.Millisecond})
	b := NewSession(1, wrap(l1), SessionConfig{RTO: 20 * time.Millisecond})
	defer a.Close()
	defer b.Close()

	// The BatchTransport contract: the sender reuses one buffer, so the
	// session must have copied each batch before SendBatch returned; an
	// empty batch is no frame at all.
	const n = 5
	buf := payload(0)
	for i := 0; i < n; i++ {
		buf[0] = payload(i)[0]
		if err := a.SendBatch(1, buf); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	buf[0].Instance = 999
	if err := a.SendBatch(1, nil); err != nil {
		t.Errorf("empty batch = %v, want nil", err)
	}
	got := collect(t, b, n)
	for i := 0; i < n; i++ {
		if got[uint64(i+1)] != 1 {
			t.Errorf("batch %d delivered %d times, want exactly once", i, got[uint64(i+1)])
		}
	}
	if frames := a.Stats().Frames; frames != n {
		t.Errorf("%d data frames sent, want %d (the empty batch is none)", frames, n)
	}
}
