package transport

import (
	"errors"
	"net"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/ocube"
)

func TestNewMeshValidation(t *testing.T) {
	if _, err := NewMesh(0, 1); err == nil {
		t.Error("NewMesh(0) succeeded")
	}
	if _, err := NewMesh(-1, 1); err == nil {
		t.Error("NewMesh(-1) succeeded")
	}
	m, err := NewMesh(2, 0) // buffer clamped to default
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
}

func TestMeshRoundTrip(t *testing.T) {
	m, err := NewMesh(3, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	a, b := m.Endpoint(0), m.Endpoint(1)
	want := core.Message{Kind: core.KindRequest, From: 0, To: 1, Target: 2, Source: 0, Seq: 7}
	if err := a.Send(want); err != nil {
		t.Fatal(err)
	}
	got := <-b.Recv()
	if got != want {
		t.Errorf("got %v, want %v", got, want)
	}
}

func TestMeshBadDestination(t *testing.T) {
	m, err := NewMesh(2, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if err := m.Endpoint(0).Send(core.Message{To: 9}); err == nil {
		t.Error("send to out-of-range destination succeeded")
	}
}

func TestMeshOverflow(t *testing.T) {
	m, err := NewMesh(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	e := m.Endpoint(0)
	if err := e.Send(core.Message{To: 1}); err != nil {
		t.Fatal(err)
	}
	if err := e.Send(core.Message{To: 1}); err == nil {
		t.Error("overflowing send succeeded")
	}
	// The overflow is not silent: callers that discard the error (the
	// cluster runtime treats it as message loss) still leave a trace in
	// the mesh-wide drop counter.
	if got := m.Stats(); got.Sent != 1 || got.Dropped != 1 {
		t.Errorf("Stats = %+v, want Sent=1 Dropped=1", got)
	}
	// A send to an out-of-range destination is an addressing error, not an
	// overflow drop.
	if err := e.Send(core.Message{To: 9}); err == nil {
		t.Error("send to out-of-range destination succeeded")
	}
	if got := m.Stats(); got.Dropped != 1 {
		t.Errorf("Dropped = %d after addressing error, want 1", got.Dropped)
	}
}

func TestMeshClosed(t *testing.T) {
	m, err := NewMesh(2, 4)
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
	if err := e.Send(core.Message{To: 1}); err != ErrClosed {
		t.Errorf("send after close = %v, want ErrClosed", err)
	}
	if _, ok := <-m.Endpoint(1).Recv(); ok {
		t.Error("recv channel not closed")
	}
	if err := e.Close(); err != nil {
		t.Errorf("endpoint close: %v", err)
	}
}

func tcpPair(t *testing.T) (*TCP, *TCP) {
	t.Helper()
	// Reserve two loopback ports.
	addrs := map[ocube.Pos]string{}
	for i := ocube.Pos(0); i < 2; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = ln.Addr().String()
		ln.Close()
	}
	a, err := NewTCP(0, addrs)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewTCP(1, addrs)
	if err != nil {
		a.Close()
		t.Fatal(err)
	}
	return a, b
}

func TestTCPRoundTrip(t *testing.T) {
	a, b := tcpPair(t)
	defer a.Close()
	defer b.Close()
	want := core.Message{Kind: core.KindToken, From: 0, To: 1, Lender: ocube.None, Seq: 3}
	if err := a.Send(want); err != nil {
		t.Fatal(err)
	}
	select {
	case got := <-b.Recv():
		if got != want {
			t.Errorf("got %v, want %v", got, want)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("timeout")
	}
	// And the reverse direction (b dials back).
	back := core.Message{Kind: core.KindTokenAck, From: 1, To: 0, Seq: 3}
	if err := b.Send(back); err != nil {
		t.Fatal(err)
	}
	select {
	case got := <-a.Recv():
		if got != back {
			t.Errorf("got %v, want %v", got, back)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("timeout")
	}
}

func TestTCPErrors(t *testing.T) {
	if _, err := NewTCP(0, map[ocube.Pos]string{1: "127.0.0.1:0"}); err == nil {
		t.Error("NewTCP without self address succeeded")
	}
	a, b := tcpPair(t)
	defer b.Close()
	if err := a.Send(core.Message{To: 5}); err == nil {
		t.Error("send to unknown peer succeeded")
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Errorf("double close: %v", err)
	}
	if err := a.Send(core.Message{To: 1}); err != ErrClosed {
		t.Errorf("send after close = %v, want ErrClosed", err)
	}
}

func TestTCPRedialAfterPeerRestart(t *testing.T) {
	a, b := tcpPair(t)
	defer a.Close()
	addr := b.Addr()
	if err := a.Send(core.Message{Kind: core.KindRequest, To: 1, Seq: 1}); err != nil {
		t.Fatal(err)
	}
	<-b.Recv()
	b.Close()
	// Sends now fail (peer down) until it comes back; the first may hit
	// the cached dead connection.
	_ = a.Send(core.Message{Kind: core.KindRequest, To: 1, Seq: 2})

	table := map[ocube.Pos]string{0: a.Addr(), 1: addr}
	b2, err := NewTCP(1, table)
	if err != nil {
		t.Fatal(err)
	}
	defer b2.Close()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if err := a.Send(core.Message{Kind: core.KindRequest, To: 1, Seq: 3}); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("never reconnected")
		}
		time.Sleep(10 * time.Millisecond)
	}
	select {
	case got := <-b2.Recv():
		if got.Seq != 3 {
			t.Errorf("got seq %d, want 3", got.Seq)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("timeout after redial")
	}
}

// TestTCPDeadPeerDoesNotStallLink pins the dial discipline: a dial that
// hangs (a black-holed address) holds only that peer's lock, so a send to
// another peer completes meanwhile. With the dial under the link-wide
// lock the second send waits for the first to give up.
func TestTCPDeadPeerDoesNotStallLink(t *testing.T) {
	addrs := reserveLoopbackAddrs(t, 3)
	a, err := NewTCP(0, addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	c, err := NewTCP(2, addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	dialing := make(chan struct{})
	release := make(chan struct{})
	a.link.dial = func(addr string) (net.Conn, error) {
		if addr == addrs[1] {
			close(dialing)
			<-release
			return nil, errors.New("black hole")
		}
		return net.DialTimeout("tcp", addr, dialTimeout)
	}

	dead := make(chan error, 1)
	go func() { dead <- a.Send(core.Message{Kind: core.KindRequest, To: 1, Seq: 1}) }()
	<-dialing

	live := make(chan error, 1)
	go func() { live <- a.Send(core.Message{Kind: core.KindRequest, To: 2, Seq: 2}) }()
	select {
	case err := <-live:
		if err != nil {
			t.Fatalf("send to the live peer: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("send to a live peer waited on the dial to a dead one")
	}
	select {
	case got := <-c.Recv():
		if got.Seq != 2 {
			t.Errorf("got seq %d, want 2", got.Seq)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("timeout")
	}

	close(release)
	if err := <-dead; err == nil {
		t.Error("send to the dead peer reported success")
	}
}
