package transport

import (
	"sync"
	"testing"
	"time"

	"repro/internal/ocube"
)

// Boot-incarnation tests: a restarted node's fresh session restarts its
// sequence space at 1; without boot-keyed dedup windows the survivors
// would discard its every frame as a duplicate of its previous life.

// TestSessionPeerRebirthResetsDedup kills and reincarnates one side of a
// session pair with a higher boot and checks the survivor accepts the
// restarted sequence space while refusing leftovers of the old one.
func TestSessionPeerRebirthResetsDedup(t *testing.T) {
	eachIngress(t, testSessionPeerRebirthResetsDedup)
}

func testSessionPeerRebirthResetsDedup(t *testing.T, wrap linkWrap) {
	mesh, err := NewSessMesh(2, 256)
	if err != nil {
		t.Fatal(err)
	}
	b := NewSession(1, wrap(mesh.Endpoint(1)), SessionConfig{})
	t.Cleanup(func() {
		b.Close()
		mesh.Close()
	})

	a1 := NewSession(0, wrap(mesh.Endpoint(0)), SessionConfig{Boot: 1})
	for i := 0; i < 3; i++ {
		if err := a1.SendBatch(1, payload(i)); err != nil {
			t.Fatal(err)
		}
	}
	got := collect(t, b, 3)
	for i := 0; i < 3; i++ {
		if got[uint64(i+1)] != 1 {
			t.Fatalf("boot 1 batch %d: got %v", i, got)
		}
	}
	a1.Close() // the kill: seqs 1..3 are burned into b's window

	// The reincarnation reuses seqs 1..3. Pre-boot dedup would drop all
	// of them silently.
	a2 := NewSession(0, wrap(mesh.Endpoint(0)), SessionConfig{Boot: 2})
	t.Cleanup(func() { a2.Close() })
	for i := 10; i < 13; i++ {
		if err := a2.SendBatch(1, payload(i)); err != nil {
			t.Fatal(err)
		}
	}
	got = collect(t, b, 3)
	for i := 10; i < 13; i++ {
		if got[uint64(i+1)] != 1 {
			t.Fatalf("boot 2 batch %d not delivered exactly once: got %v", i, got)
		}
	}

	// A straggler of the dead incarnation must be dropped, not delivered
	// and not acked.
	if err := mesh.Endpoint(0).SendFrame(1, SessFrame{From: 0, Boot: 1, Seq: 99, Batch: payload(99)}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if b.Stats().StaleBootDrops >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("stale-boot frame never counted: %+v", b.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	select {
	case batch := <-b.RecvBatch():
		t.Fatalf("stale-boot frame delivered: %+v", batch)
	default:
	}
}

// TestSessionRebirthIgnoresStaleAcks checks a reborn sender does not let
// acks addressed to its previous incarnation retire its fresh frames:
// the ack names the incarnation it acknowledges (ToBoot), and a mismatch
// is ignored.
func TestSessionRebirthIgnoresStaleAcks(t *testing.T) {
	eachIngress(t, testSessionRebirthIgnoresStaleAcks)
}

func testSessionRebirthIgnoresStaleAcks(t *testing.T, wrap linkWrap) {
	mesh, err := NewSessMesh(2, 256)
	if err != nil {
		t.Fatal(err)
	}
	a := NewSession(0, wrap(mesh.Endpoint(0)), SessionConfig{Boot: 2, RTO: 20 * time.Millisecond})
	t.Cleanup(func() {
		a.Close()
		mesh.Close()
	})

	// Drop every data frame from a, then forge an old-boot ack for seq 1:
	// the frame must stay unacked and keep retransmitting.
	mesh.Drop = func(to ocube.Pos, f SessFrame) bool { return to == 1 && f.Seq != 0 }
	if err := a.SendBatch(1, payload(0)); err != nil {
		t.Fatal(err)
	}
	if err := mesh.Endpoint(1).SendFrame(0, SessFrame{From: 1, Boot: 1, Ack: 1, ToBoot: 1}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for a.Stats().Retransmits < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("frame stopped retransmitting after a stale-boot ack: %+v", a.Stats())
		}
		time.Sleep(time.Millisecond)
	}

	// A current-boot ack retires it.
	if err := mesh.Endpoint(1).SendFrame(0, SessFrame{From: 1, Boot: 1, Ack: 1, ToBoot: 2}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	base := a.Stats().Retransmits
	time.Sleep(200 * time.Millisecond)
	if got := a.Stats().Retransmits; got > base+1 {
		t.Fatalf("retransmissions continued after a matching ack: %d -> %d", base, got)
	}
}

// TestSessionAckPathNotBlockedByDelivery sends far more batches than the
// delivery buffer holds while the receiving app consumes nothing: acks
// must still flow (they are processed off the delivery path), so every
// send completes. With acking coupled to delivery this deadlocks — the
// full buffer blocks the receiver's inbox, acks stop, the sender's
// window jams shut. This is the live analogue of a node blocked in
// flush toward a partitioned peer while traffic pours in.
func TestSessionAckPathNotBlockedByDelivery(t *testing.T) {
	eachIngress(t, testSessionAckPathNotBlockedByDelivery)
}

func testSessionAckPathNotBlockedByDelivery(t *testing.T, wrap linkWrap) {
	mesh, err := NewSessMesh(2, 64)
	if err != nil {
		t.Fatal(err)
	}
	a, b := sessPairOver(t, wrap, mesh, SessionConfig{})
	a.narrow(8)
	b.narrow(8)

	const n = 1500 // > out-channel cap (1024) + window
	sent := make(chan error, 1)
	go func() {
		for i := 0; i < n; i++ {
			if err := a.SendBatch(1, payload(i)); err != nil {
				sent <- err
				return
			}
		}
		sent <- nil
	}()
	select {
	case err := <-sent:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("sends stalled with an unconsumed receiver: ack path blocked by delivery (a=%+v b=%+v)",
			a.Stats(), b.Stats())
	}

	// Nothing was lost or duplicated: the app can now drain all of it.
	got := collect(t, b, n)
	for i := 0; i < n; i++ {
		if got[uint64(i+1)] != 1 {
			t.Fatalf("batch %d delivered %d times", i, got[uint64(i+1)])
		}
	}
}

// TestSessionIngressNeverWaitsForTheApp is the same contract at its
// tightest, aimed at the pushing links, whose frames the session handles
// on the link's own reader: two sessions with a window of one send at
// each other while neither app reads. Every frame needs its ack before
// the next may leave, and both delivery buffers fill long before the
// sends are done. If handling a frame ever waited for the app, neither
// side would take in the ack it is itself waiting for, and the two would
// stop for good.
func TestSessionIngressNeverWaitsForTheApp(t *testing.T) {
	eachIngress(t, testSessionIngressNeverWaitsForTheApp)
}

func testSessionIngressNeverWaitsForTheApp(t *testing.T, wrap linkWrap) {
	mesh, err := NewSessMesh(2, 64)
	if err != nil {
		t.Fatal(err)
	}
	a, b := sessPairOver(t, wrap, mesh, SessionConfig{})
	a.narrow(1)
	b.narrow(1)

	const n = 1500 // > out-channel cap (1024) + window
	sent := make(chan error, 2)
	for _, dir := range []struct {
		from *Session
		to   ocube.Pos
	}{{a, 1}, {b, 0}} {
		go func() {
			for i := 0; i < n; i++ {
				if err := dir.from.SendBatch(dir.to, payload(i)); err != nil {
					sent <- err
					return
				}
			}
			sent <- nil
		}()
	}
	for i := 0; i < 2; i++ {
		select {
		case err := <-sent:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(60 * time.Second):
			t.Fatalf("sends stalled with neither app reading (a=%+v b=%+v)", a.Stats(), b.Stats())
		}
	}
	for _, s := range []*Session{a, b} {
		got := collect(t, s, n)
		for i := 0; i < n; i++ {
			if got[uint64(i+1)] != 1 {
				t.Fatalf("batch %d delivered %d times", i, got[uint64(i+1)])
			}
		}
	}
}

// TestSessionPreviousLifeFramesNotRedelivered is the receiver-side boot
// rule: a frame the previous incarnation of a node consumed, but whose
// ack never made it back, must not be delivered again to its successor.
// The sender keeps retransmitting it addressed to the old incarnation;
// the successor refuses it and announces itself, and the sender abandons
// what it had in flight to the dead one. (Redelivered, a token transfer
// becomes a second token — the chaos rig found exactly that once acks
// began to ride on droppable data frames.)
func TestSessionPreviousLifeFramesNotRedelivered(t *testing.T) {
	eachIngress(t, testSessionPreviousLifeFramesNotRedelivered)
}

func testSessionPreviousLifeFramesNotRedelivered(t *testing.T, wrap linkWrap) {
	mesh, err := NewSessMesh(2, 256)
	if err != nil {
		t.Fatal(err)
	}
	var dropMu sync.Mutex
	cutAcks := false
	mesh.Drop = func(to ocube.Pos, f SessFrame) bool {
		dropMu.Lock()
		defer dropMu.Unlock()
		return cutAcks && to == 0
	}
	cfg := SessionConfig{RTO: 10 * time.Millisecond, MaxRTO: 20 * time.Millisecond}
	y := NewSession(0, wrap(mesh.Endpoint(0)), cfg)
	x1 := NewSession(1, wrap(mesh.Endpoint(1)), cfg)
	t.Cleanup(func() {
		y.Close()
		mesh.Close()
	})

	// y hears from x's first life, so it knows which incarnation it
	// addresses from here on.
	if err := x1.SendBatch(0, payload(0)); err != nil {
		t.Fatal(err)
	}
	collect(t, y, 1)

	dropMu.Lock()
	cutAcks = true
	dropMu.Unlock()
	if err := y.SendBatch(1, payload(1)); err != nil {
		t.Fatal(err)
	}
	if got := collect(t, x1, 1); got[2] != 1 {
		t.Fatalf("first life received %v", got)
	}
	x1.Close() // dies with the ack undelivered
	dropMu.Lock()
	cutAcks = false
	dropMu.Unlock()

	cfg.Boot = 2
	x2 := NewSession(1, wrap(mesh.Endpoint(1)), cfg)
	t.Cleanup(func() { x2.Close() })
	deadline := time.Now().Add(10 * time.Second)
	for x2.Stats().StaleBootDrops == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("the retransmission never reached the second life: y=%+v x2=%+v", y.Stats(), x2.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	waitQuiet(t, y) // y abandoned the frame once x2 announced itself

	if err := y.SendBatch(1, payload(2)); err != nil {
		t.Fatal(err)
	}
	if got := recvOne(t, x2); got[0].Instance != 3 {
		t.Fatalf("second life received %+v, want only the batch sent to it", got)
	}
	select {
	case extra := <-x2.RecvBatch():
		t.Fatalf("second life also received %+v", extra)
	case <-time.After(50 * time.Millisecond):
	}
}
