package transport

import (
	"net"
	"testing"
	"time"

	"repro/internal/core"
)

// killLiveConns hard-closes every TCP connection the link writes on,
// without touching the listener: called on both ends of a pair, the
// moral equivalent of a middlebox resetting every flow mid-stream, since
// a live connection is always its dialer's write connection. The next
// send re-dials lazily; the session layer replays whatever died on the
// wire.
func killLiveConns(t *SessTCP) int {
	var conns []net.Conn
	t.mu.Lock()
	for _, pc := range t.conns {
		if pc.conn != nil {
			conns = append(conns, pc.conn)
		}
	}
	t.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
	return len(conns)
}

// TestSessTCPMidStreamKillReplays streams batches over a real loopback
// session pair while repeatedly resetting every TCP connection
// mid-stream. The reconnect-and-replay contract: retransmissions
// actually happened (Retransmits > 0), every batch reaches the app
// exactly once with its contents intact (frame-level continuity — a
// torn frame kills the connection, never yields a partial batch),
// and no duplicate surfaces to the app.
func TestSessTCPMidStreamKillReplays(t *testing.T) {
	_, links := tcpLinks(t, 2, 0, 1)
	la, lb := links[0], links[1]
	cfg := SessionConfig{RTO: 20 * time.Millisecond, MaxRTO: 200 * time.Millisecond}
	a := NewSession(0, la, cfg)
	b := NewSession(1, lb, cfg)
	t.Cleanup(func() {
		a.Close()
		b.Close()
	})

	// Each batch carries three envelopes with contiguous tags: a torn or
	// partial delivery would break the triple.
	batch := func(i int) []core.Envelope {
		out := make([]core.Envelope, 3)
		for j := range out {
			out[j] = core.Envelope{
				Instance: uint64(3*i + j + 1),
				Msg:      core.Message{Kind: core.KindRequest, From: 0, To: 1, Seq: uint64(i)},
			}
		}
		return out
	}

	sent := 0
	deadline := time.Now().Add(20 * time.Second)
	for a.Stats().Retransmits == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("connection kills never forced a retransmission: %+v", a.Stats())
		}
		for i := 0; i < 10; i++ {
			if err := a.SendBatch(1, batch(sent)); err != nil {
				t.Fatal(err)
			}
			sent++
		}
		// Reset every flow while the burst (and its acks) are in flight.
		killLiveConns(la)
		killLiveConns(lb)
		time.Sleep(5 * time.Millisecond)
	}
	// A quiet tail so the final replays land before we drain.
	for i := 0; i < 10; i++ {
		if err := a.SendBatch(1, batch(sent)); err != nil {
			t.Fatal(err)
		}
		sent++
	}

	got := make(map[uint64]int)
	batches := 0
	drain := time.After(20 * time.Second)
	for batches < sent {
		select {
		case bt, ok := <-b.RecvBatch():
			if !ok {
				t.Fatalf("receive channel closed after %d of %d batches", batches, sent)
			}
			if len(bt) != 3 {
				t.Fatalf("torn batch: %d envelopes, want 3", len(bt))
			}
			base := bt[0].Instance
			for j, env := range bt {
				if env.Instance != base+uint64(j) {
					t.Fatalf("batch continuity broken: %v", bt)
				}
			}
			for _, env := range bt {
				got[env.Instance]++
			}
			batches++
		case <-drain:
			t.Fatalf("timed out after %d of %d batches (a=%+v b=%+v)", batches, sent, a.Stats(), b.Stats())
		}
	}
	for i := 1; i <= 3*sent; i++ {
		if got[uint64(i)] != 1 {
			t.Fatalf("envelope %d delivered %d times (duplicates surfaced to the app)", i, got[uint64(i)])
		}
	}
	if st := a.Stats(); st.Retransmits == 0 {
		t.Fatalf("expected retransmissions, got %+v", st)
	}
}
