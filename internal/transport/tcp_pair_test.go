package transport

import (
	"context"
	"net"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/ocube"
)

// writeConn is the connection l writes on to peer, nil while it has none.
func writeConn(l *SessTCP, peer ocube.Pos) net.Conn {
	l.mu.Lock()
	defer l.mu.Unlock()
	if pc := l.conns[peer]; pc != nil {
		return pc.conn
	}
	return nil
}

// TestTCPPairSharesOneConnection: a pair's frames travel both ways on one
// connection, dialed by the end that sent first and adopted by the other
// once its first frame arrives. Crossed first sends, both ends dialing at
// once, may leave a pair two connections, and every frame still arrives.
func TestTCPPairSharesOneConnection(t *testing.T) {
	a, b := tcpPair(t)
	defer a.Close()
	defer b.Close()
	var dials atomic.Int32
	for _, l := range []*SessTCP{a, b} {
		l.dial = func(ctx context.Context, addr string) (net.Conn, error) {
			dials.Add(1)
			return (&net.Dialer{Timeout: dialTimeout}).DialContext(ctx, "tcp", addr)
		}
	}
	there := SessFrame{From: 0, Boot: 1, Seq: 1, Batch: envBatch(1, 1)}
	if err := a.SendFrame(1, there); err != nil {
		t.Fatal(err)
	}
	if got := recvFrame(t, b); !reflect.DeepEqual(got, there) {
		t.Fatalf("got %v, want %v", got, there)
	}
	back := SessFrame{From: 1, Boot: 1, ToBoot: 1, Ack: 1}
	if err := b.SendFrame(0, back); err != nil {
		t.Fatal(err)
	}
	if got := recvFrame(t, a); !reflect.DeepEqual(got, back) {
		t.Fatalf("got %v, want %v", got, back)
	}
	if n := dials.Load(); n != 1 {
		t.Errorf("the pair dialed %d connections, want 1", n)
	}
	ca, cb := writeConn(a, 1), writeConn(b, 0)
	switch {
	case ca == nil || cb == nil:
		t.Errorf("an end holds no connection (0: %v, 1: %v)", ca != nil, cb != nil)
	case ca.LocalAddr().String() != cb.RemoteAddr().String() || ca.RemoteAddr().String() != cb.LocalAddr().String():
		t.Errorf("the ends write on two connections: 0 on %v→%v, 1 on %v→%v",
			ca.LocalAddr(), ca.RemoteAddr(), cb.LocalAddr(), cb.RemoteAddr())
	}

	t.Run("crossed", func(t *testing.T) {
		crossed := 0
		for pair := 0; pair < 50; pair++ {
			_, links := tcpLinks(t, 2, 0, 1)
			ends := [2]*SessTCP{links[0], links[1]}
			for round := uint64(1); round <= 2; round++ {
				var start, sent sync.WaitGroup
				start.Add(1)
				for i, l := range ends {
					sent.Add(1)
					go func(i int, l *SessTCP) {
						defer sent.Done()
						start.Wait()
						f := SessFrame{From: ocube.Pos(i), Boot: 1, Seq: round}
						if err := l.SendFrame(ocube.Pos(1-i), f); err != nil {
							t.Errorf("pair %d: send %d→%d: %v", pair, i, 1-i, err)
						}
					}(i, l)
				}
				start.Done()
				sent.Wait()
				for i, l := range ends {
					select {
					case f := <-l.RecvFrame():
						if f.From != ocube.Pos(1-i) || f.Seq != round {
							t.Errorf("pair %d: %d got %v, want seq %d from %d", pair, i, f, round, 1-i)
						}
					case <-time.After(5 * time.Second):
						t.Fatalf("pair %d: %d never got frame %d of a crossed send", pair, i, round)
					}
				}
			}
			if ca, cb := writeConn(ends[0], 1), writeConn(ends[1], 0); ca != nil && cb != nil &&
				ca.LocalAddr().String() != cb.RemoteAddr().String() {
				crossed++
			}
			for _, l := range ends {
				l.Close()
			}
		}
		t.Logf("%d of 50 pairs kept two connections", crossed)
	})
}

// TestTCPRestartAfterTraffic: once a pair has carried frames both ways and
// one end closes, the survivor's reader sees the connection end and drops
// it, so every frame sent to the end's next incarnation goes on a fresh
// dial and none is written into the dead socket.
func TestTCPRestartAfterTraffic(t *testing.T) {
	a, b := tcpPair(t)
	defer a.Close()
	addr := b.Addr()
	if err := a.SendFrame(1, SessFrame{From: 0, Seq: 1}); err != nil {
		t.Fatal(err)
	}
	recvFrame(t, b)
	if err := b.SendFrame(0, SessFrame{From: 1, Seq: 1}); err != nil {
		t.Fatal(err)
	}
	recvFrame(t, a)
	b.Close()
	for deadline := time.Now().Add(2 * time.Second); writeConn(a, 1) != nil; {
		if time.Now().After(deadline) {
			t.Error("2 s after the peer closed, the survivor still writes on its connection")
			break
		}
		time.Sleep(time.Millisecond)
	}

	b2, err := NewSessTCP(1, map[ocube.Pos]string{0: a.Addr(), 1: addr})
	if err != nil {
		t.Fatal(err)
	}
	defer b2.Close()
	for seq := uint64(2); seq <= 5; seq++ {
		if err := a.SendFrame(1, SessFrame{From: 0, Seq: seq}); err != nil {
			t.Errorf("send %d: %v", seq, err)
		}
	}
	var got []uint64
	for timeout := time.After(5 * time.Second); len(got) < 4; {
		select {
		case f := <-b2.RecvFrame():
			got = append(got, f.Seq)
		case <-timeout:
			t.Fatalf("the restarted peer got frames %v, want 2 3 4 5", got)
		}
	}
	if !reflect.DeepEqual(got, []uint64{2, 3, 4, 5}) {
		t.Errorf("the restarted peer got frames %v, want 2 3 4 5", got)
	}
}
