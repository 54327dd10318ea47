package transport

import (
	"errors"
	"net"
	"reflect"
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
// transport address map (listen on :0, record the address, close).
func reserveLoopbackAddrs(t *testing.T, n int) map[ocube.Pos]string {
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

func tcpPair(t *testing.T) (*SessTCP, *SessTCP) {
	t.Helper()
	addrs := reserveLoopbackAddrs(t, 2)
	a, err := NewSessTCP(0, addrs)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewSessTCP(1, addrs)
	if err != nil {
		a.Close()
		t.Fatal(err)
	}
	return a, b
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
	if got := recvFrame(t, b2); got.Seq != 3 {
		t.Errorf("got seq %d, want 3", got.Seq)
	}
}

// TestTCPDeadPeerDoesNotStallLink pins the dial discipline: a dial that
// hangs (a black-holed address) holds only that peer's lock, so a send to
// another peer completes meanwhile. With the dial under the link-wide
// lock the second send waits for the first to give up.
func TestTCPDeadPeerDoesNotStallLink(t *testing.T) {
	addrs := reserveLoopbackAddrs(t, 3)
	a, err := NewSessTCP(0, addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	c, err := NewSessTCP(2, addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	dialing := make(chan struct{})
	release := make(chan struct{})
	a.dial = func(addr string) (net.Conn, error) {
		if addr == addrs[1] {
			close(dialing)
			<-release
			return nil, errors.New("black hole")
		}
		return net.DialTimeout("tcp", addr, dialTimeout)
	}

	dead := make(chan error, 1)
	go func() { dead <- a.SendFrame(1, SessFrame{Seq: 1}) }()
	<-dialing

	live := make(chan error, 1)
	go func() { live <- a.SendFrame(2, SessFrame{Seq: 2}) }()
	select {
	case err := <-live:
		if err != nil {
			t.Fatalf("send to the live peer: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("send to a live peer waited on the dial to a dead one")
	}
	if got := recvFrame(t, c); got.Seq != 2 {
		t.Errorf("got seq %d, want 2", got.Seq)
	}

	close(release)
	if err := <-dead; err == nil {
		t.Error("send to the dead peer reported success")
	}
}
