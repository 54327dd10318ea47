package transport

import (
	"context"
	"errors"
	"net"
	"os"
	"reflect"
	"syscall"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/ocube"
)

// The tests in this file drive the two FrameLinks bare, with no Session
// on top: what a link does with one frame.

func envBatch(inst uint64, n int) []core.Envelope {
	out := make([]core.Envelope, n)
	for i := range out {
		out[i] = core.Envelope{
			Instance: inst + uint64(i),
			Msg:      core.Message{Kind: core.KindRequest, From: 0, To: 1, Target: 1, Source: 0, Seq: uint64(7 + i)},
		}
	}
	return out
}

func TestNewMeshValidation(t *testing.T) {
	if _, err := NewSessMesh(0, 1); err == nil {
		t.Error("NewSessMesh(0) succeeded")
	}
	if _, err := NewSessMesh(-1, 1); err == nil {
		t.Error("NewSessMesh(-1) succeeded")
	}
	m, err := NewSessMesh(2, 0) // buffer clamped to default
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
}

func TestMeshRoundTrip(t *testing.T) {
	m, err := NewSessMesh(3, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	a, b := m.Endpoint(0), m.Endpoint(1)
	want := SessFrame{From: 0, Boot: 1, Seq: 7, Batch: envBatch(5, 3)}
	if err := a.SendFrame(1, want); err != nil {
		t.Fatal(err)
	}
	if got := <-b.RecvFrame(); !reflect.DeepEqual(got, want) {
		t.Errorf("got %v, want %v", got, want)
	}
}

func TestMeshBadDestination(t *testing.T) {
	m, err := NewSessMesh(2, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if err := m.Endpoint(0).SendFrame(9, SessFrame{}); err == nil {
		t.Error("send to out-of-range destination succeeded")
	}
}

// TestMeshOverflow: a full inbox refuses the frame and says so — to a
// session that is a lost frame, which it sends again — and takes frames
// again once drained.
func TestMeshOverflow(t *testing.T) {
	m, err := NewSessMesh(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	e := m.Endpoint(0)
	if err := e.SendFrame(1, SessFrame{Seq: 1}); err != nil {
		t.Fatal(err)
	}
	if err := e.SendFrame(1, SessFrame{Seq: 2}); err == nil {
		t.Error("overflowing send succeeded")
	}
	if got := <-m.Endpoint(1).RecvFrame(); got.Seq != 1 {
		t.Errorf("got seq %d, want 1", got.Seq)
	}
	if err := e.SendFrame(1, SessFrame{Seq: 2}); err != nil {
		t.Errorf("send into the drained inbox: %v", err)
	}
}

func TestMeshClosed(t *testing.T) {
	m, err := NewSessMesh(2, 4)
	if err != nil {
		t.Fatal(err)
	}
	e := m.Endpoint(0)
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Errorf("double close: %v", err)
	}
	if err := e.SendFrame(1, SessFrame{}); err != ErrClosed {
		t.Errorf("send after close = %v, want ErrClosed", err)
	}
	if _, ok := <-m.Endpoint(1).RecvFrame(); ok {
		t.Error("recv channel not closed")
	}
	if err := e.Close(); err != nil {
		t.Errorf("endpoint close: %v", err)
	}
}

// reserveLoopbackAddrs grabs n free loopback ports and returns them as a
// transport address map (listen on :0, record the address, close). A
// port is free only at that moment: bind it through onLoopback.
func reserveLoopbackAddrs(t testing.TB, n int) map[ocube.Pos]string {
	t.Helper()
	addrs := map[ocube.Pos]string{}
	for i := ocube.Pos(0); i < ocube.Pos(n); i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = ln.Addr().String()
		ln.Close()
	}
	return addrs
}

// onLoopback runs up, the bring-up of a test's links, on n freshly
// reserved loopback ports and returns them. Another process can bind a
// reserved port before up does; up then fails with address already in
// use, closing what it opened, and the whole bring-up runs again on new
// ports.
func onLoopback(t testing.TB, n int, up func(addrs map[ocube.Pos]string) error) map[ocube.Pos]string {
	t.Helper()
	for try := 1; ; try++ {
		addrs := reserveLoopbackAddrs(t, n)
		err := up(addrs)
		if err == nil {
			return addrs
		}
		if !errors.Is(err, syscall.EADDRINUSE) || try == 10 {
			t.Fatal(err)
		}
	}
}

// tcpLinks starts a SessTCP for each of the positions selves on n
// loopback ports (onLoopback), in that order.
func tcpLinks(t testing.TB, n int, selves ...ocube.Pos) (map[ocube.Pos]string, []*SessTCP) {
	t.Helper()
	var links []*SessTCP
	addrs := onLoopback(t, n, func(addrs map[ocube.Pos]string) error {
		links = links[:0]
		for _, self := range selves {
			l, err := NewSessTCP(self, addrs)
			if err != nil {
				for _, l := range links {
					l.Close()
				}
				return err
			}
			links = append(links, l)
		}
		return nil
	})
	return addrs, links
}

func tcpPair(t *testing.T) (*SessTCP, *SessTCP) {
	t.Helper()
	_, links := tcpLinks(t, 2, 0, 1)
	return links[0], links[1]
}

// recvFrame takes the link's next inbound frame.
func recvFrame(t *testing.T, l *SessTCP) SessFrame {
	t.Helper()
	select {
	case f := <-l.RecvFrame():
		return f
	case <-time.After(10 * time.Second):
		t.Fatal("timeout")
		return SessFrame{}
	}
}

func TestTCPRoundTrip(t *testing.T) {
	a, b := tcpPair(t)
	defer a.Close()
	defer b.Close()
	want := SessFrame{From: 0, Boot: 1, Seq: 3, Batch: envBatch(42, 2)}
	if err := a.SendFrame(1, want); err != nil {
		t.Fatal(err)
	}
	if got := recvFrame(t, b); !reflect.DeepEqual(got, want) {
		t.Errorf("got %v, want %v", got, want)
	}
	// And the reverse direction (b dials back), a pure ack.
	back := SessFrame{From: 1, Boot: 1, ToBoot: 1, Ack: 3}
	if err := b.SendFrame(0, back); err != nil {
		t.Fatal(err)
	}
	if got := recvFrame(t, a); !reflect.DeepEqual(got, back) {
		t.Errorf("got %v, want %v", got, back)
	}
}

func TestTCPErrors(t *testing.T) {
	if _, err := NewSessTCP(0, map[ocube.Pos]string{1: "127.0.0.1:0"}); err == nil {
		t.Error("NewSessTCP without self address succeeded")
	}
	a, b := tcpPair(t)
	defer b.Close()
	if err := a.SendFrame(5, SessFrame{}); err == nil {
		t.Error("send to unknown peer succeeded")
	}
	if err := a.SendFrame(1, SessFrame{Batch: make([]core.Envelope, MaxBatch+1)}); err == nil {
		t.Error("a batch above MaxBatch was sent")
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Errorf("double close: %v", err)
	}
	if err := a.SendFrame(1, SessFrame{}); err != ErrClosed {
		t.Errorf("send after close = %v, want ErrClosed", err)
	}
}

// TestTCPRefusesSenderOutsideCluster: a well-formed frame whose From has
// no address in the cluster closes its connection before the session
// sees it, so a stray or forged sender cannot make a Machine grow its
// peer table to that position.
func TestTCPRefusesSenderOutsideCluster(t *testing.T) {
	a, b := tcpPair(t)
	defer a.Close()
	defer b.Close()
	conn, err := net.DialTimeout("tcp", b.Addr(), dialTimeout)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	var buf []byte
	for _, f := range []SessFrame{
		{From: 1<<ocube.MaxP - 1, Boot: 1, Seq: 1, Batch: envBatch(7, 1)},
		{From: 0, Boot: 1, Seq: 1, Batch: envBatch(8, 1)}, // after it on the same connection
	} {
		if buf, err = appendWireFrame(buf, f); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := conn.Write(buf); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Read(make([]byte, 1)); err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("the connection stayed open after a frame from outside the cluster (%v)", err)
	}
	want := SessFrame{From: 0, Boot: 1, Seq: 2, Batch: envBatch(9, 1)}
	if err := a.SendFrame(1, want); err != nil {
		t.Fatal(err)
	}
	if got := recvFrame(t, b); !reflect.DeepEqual(got, want) {
		t.Errorf("got %v, want only the member's frame %v", got, want)
	}
}

func TestTCPRedialAfterPeerRestart(t *testing.T) {
	a, b := tcpPair(t)
	defer a.Close()
	addr := b.Addr()
	if err := a.SendFrame(1, SessFrame{Seq: 1}); err != nil {
		t.Fatal(err)
	}
	recvFrame(t, b)
	b.Close()
	// Sends now fail (peer down) until it comes back; the first may hit
	// the cached dead connection.
	_ = a.SendFrame(1, SessFrame{Seq: 2})

	table := map[ocube.Pos]string{0: a.Addr(), 1: addr}
	b2, err := NewSessTCP(1, table)
	if err != nil {
		t.Fatal(err)
	}
	defer b2.Close()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if err := a.SendFrame(1, SessFrame{Seq: 3}); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("never reconnected")
		}
		time.Sleep(10 * time.Millisecond)
	}
	got := recvFrame(t, b2)
	if got.Seq == 2 {
		got = recvFrame(t, b2)
	}
	if got.Seq != 3 {
		t.Errorf("got seq %d, want 3", got.Seq)
	}
}

// TestTCPDeadPeerDoesNotStallLink pins the dial discipline: a dial that
// hangs (a black-holed address) holds up neither its sender nor a send to
// another peer, and when it fails the frames queued behind it are lost —
// what the session's retransmission repairs — while the next send dials
// again.
func TestTCPDeadPeerDoesNotStallLink(t *testing.T) {
	addrs, links := tcpLinks(t, 3, 0, 2)
	a, c := links[0], links[1]
	defer a.Close()
	defer c.Close()

	dialing := make(chan struct{}, 1)
	release := make(chan struct{})
	a.dial = func(ctx context.Context, addr string) (net.Conn, error) {
		if addr == addrs[1] {
			select {
			case dialing <- struct{}{}:
			default:
			}
			<-release
			return nil, errors.New("black hole")
		}
		return net.DialTimeout("tcp", addr, dialTimeout)
	}

	if err := a.SendFrame(1, SessFrame{Seq: 1}); err != nil {
		t.Fatalf("send to the dead peer: %v", err)
	}
	<-dialing
	if err := a.SendFrame(2, SessFrame{Seq: 2}); err != nil {
		t.Fatalf("send to the live peer: %v", err)
	}
	if got := recvFrame(t, c); got.Seq != 2 {
		t.Errorf("got seq %d, want 2", got.Seq)
	}
	close(release)
	// Once the failed dial has dropped its queue, a send dials anew.
	for deadline := time.Now().Add(10 * time.Second); ; {
		if err := a.SendFrame(1, SessFrame{Seq: 3}); err != nil {
			t.Fatalf("send after the failed dial: %v", err)
		}
		select {
		case <-dialing:
			return
		case <-time.After(10 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			t.Fatal("no send after a failed dial dialed again")
		}
	}
}

// TestTCPSendDoesNotWaitForDial: a send with no connection returns at
// once, its frame queued behind the dial, and the frames sent while the
// dial is in flight arrive in order once it connects.
func TestTCPSendDoesNotWaitForDial(t *testing.T) {
	a, b := tcpPair(t)
	defer a.Close()
	defer b.Close()
	a.dial = func(ctx context.Context, addr string) (net.Conn, error) {
		time.Sleep(300 * time.Millisecond)
		return net.DialTimeout("tcp", addr, dialTimeout)
	}
	start := time.Now()
	for seq := uint64(1); seq <= 5; seq++ {
		if err := a.SendFrame(1, SessFrame{Seq: seq}); err != nil {
			t.Fatal(err)
		}
	}
	if took := time.Since(start); took > 100*time.Millisecond {
		t.Errorf("five sends behind a 300 ms dial took %v", took)
	}
	for seq := uint64(1); seq <= 5; seq++ {
		if got := recvFrame(t, b); got.Seq != seq {
			t.Fatalf("got seq %d, want %d", got.Seq, seq)
		}
	}
}

// TestTCPStalledReaderBoundsSend: a peer that accepts but never reads
// fills the socket buffer, and every send to it still returns within a
// second — a write that misses its deadline drops the connection, and the
// next send re-dials — where an unbounded write would wait until the
// kernel gave up on the connection.
func TestTCPStalledReaderBoundsSend(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var accepted []net.Conn // held open, never read
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			accepted = append(accepted, c)
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		<-done
		for _, c := range accepted {
			c.Close()
		}
	})
	var a *SessTCP
	onLoopback(t, 1, func(addrs map[ocube.Pos]string) (err error) {
		addrs[1] = ln.Addr().String()
		a, err = NewSessTCP(0, addrs)
		return err
	})
	defer a.Close()

	f := SessFrame{Seq: 1, Batch: envBatch(1, 1024)} // ≈ 56 KiB on the wire
	var slowest time.Duration
	for i, dropped := 0, 0; dropped < 2; i++ {
		if i == 100000 {
			t.Fatal("100000 frames to a never-reading peer and no write missed its deadline")
		}
		done := make(chan error, 1)
		start := time.Now()
		go func() { done <- a.SendFrame(1, f) }()
		select {
		case err := <-done:
			if err != nil {
				dropped++
			}
			slowest = max(slowest, time.Since(start))
		case <-time.After(time.Second):
			t.Fatalf("send %d to a never-reading peer still blocked after 1s", i)
		}
	}
	t.Logf("slowest send: %v", slowest)
}
