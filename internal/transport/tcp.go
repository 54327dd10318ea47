package transport

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ocube"
)

// dialTimeout bounds one lazy dial. A send to a black-holed address
// fails after this long instead of waiting out the kernel's SYN retries;
// the frame counts as lost, which every caller already tolerates.
const dialTimeout = 2 * time.Second

// SessTCP is the FrameLink over TCP sockets: each node listens on its
// own address and dials peers lazily; outbound connections are cached
// and serialized per peer; one session frame travels per wire frame, in
// the fixed binary layout of wire.go. Pair it with NewSession for a
// reliable multi-process BatchTransport: a dropped connection is
// re-dialed by the next send, and the session's retransmission replays
// whatever the drop swallowed. Suitable for the multi-process examples;
// production hardening (TLS, reconnection backoff) is out of scope for
// the reproduction.
type SessTCP struct {
	addrs map[ocube.Pos]string
	// dial opens the connection to a peer address (a hook for tests).
	dial func(addr string) (net.Conn, error)

	listener net.Listener
	inbox    chan SessFrame
	// sink, when set, takes each inbound frame on the connection's reader
	// in place of inbox (pushTo).
	sink   atomic.Pointer[func(SessFrame)]
	closed atomic.Bool // set under mu; readLoop reads it without

	mu       sync.Mutex
	conns    map[ocube.Pos]*peerConn
	accepted map[net.Conn]bool
	wg       sync.WaitGroup
}

// peerConn is the outbound state of one peer. Its mu serializes dialing
// and writing to that peer only, so a peer that hangs in dial or write
// delays nobody else. conn is written with both mu and the link's mu
// held and may be read under either.
type peerConn struct {
	mu   sync.Mutex
	conn net.Conn
	buf  []byte // encode buffer, reused across sends
}

// NewSessTCP starts a session frame link for self, listening on
// addrs[self].
func NewSessTCP(self ocube.Pos, addrs map[ocube.Pos]string) (*SessTCP, error) {
	addr, ok := addrs[self]
	if !ok {
		return nil, fmt.Errorf("transport: no address for self %v", self)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", addr, err)
	}
	t := &SessTCP{
		addrs: make(map[ocube.Pos]string, len(addrs)),
		dial: func(addr string) (net.Conn, error) {
			return net.DialTimeout("tcp", addr, dialTimeout)
		},
		listener: ln,
		inbox:    make(chan SessFrame, 1024),
		conns:    make(map[ocube.Pos]*peerConn),
		accepted: make(map[net.Conn]bool),
	}
	for k, v := range addrs {
		t.addrs[k] = v
	}
	t.wg.Add(1)
	go t.acceptLoop()
	return t, nil
}

// Addr returns the bound listen address (useful with ":0" ports).
func (t *SessTCP) Addr() string { return t.listener.Addr().String() }

func (t *SessTCP) acceptLoop() {
	defer t.wg.Done()
	for {
		conn, err := t.listener.Accept()
		if err != nil {
			return // listener closed
		}
		t.mu.Lock()
		if t.closed.Load() {
			t.mu.Unlock()
			conn.Close()
			return
		}
		t.accepted[conn] = true
		t.mu.Unlock()
		t.wg.Add(1)
		go t.readLoop(conn)
	}
}

func (t *SessTCP) readLoop(conn net.Conn) {
	defer t.wg.Done()
	defer func() {
		conn.Close()
		t.mu.Lock()
		delete(t.accepted, conn)
		t.mu.Unlock()
	}()
	r := newWireReader(conn)
	for {
		body, err := r.next()
		if err != nil {
			return
		}
		f, err := readSessFrame(body)
		if err != nil || t.closed.Load() {
			return
		}
		if sink := t.sink.Load(); sink != nil {
			(*sink)(f)
			continue
		}
		select {
		case t.inbox <- f:
		default:
			// Inbox overflow: drop. The session retransmits what it does
			// not see acknowledged.
		}
	}
}

// SendFrame implements FrameLink: it encodes the frame and writes it to
// the peer, dialing lazily.
func (t *SessTCP) SendFrame(to ocube.Pos, f SessFrame) error {
	t.mu.Lock()
	if t.closed.Load() {
		t.mu.Unlock()
		return ErrClosed
	}
	pc := t.conns[to]
	if pc == nil {
		if _, ok := t.addrs[to]; !ok {
			t.mu.Unlock()
			return fmt.Errorf("transport: no address for %v", to)
		}
		pc = &peerConn{}
		t.conns[to] = pc
	}
	t.mu.Unlock()

	pc.mu.Lock()
	defer pc.mu.Unlock()
	if pc.conn == nil {
		// Dial holding only this peer's lock: a black-holed address
		// stalls sends to that peer, not the link.
		conn, err := t.dial(t.addrs[to])
		if err != nil {
			return fmt.Errorf("transport: dial %v: %w", to, err)
		}
		t.mu.Lock()
		if t.closed.Load() {
			t.mu.Unlock()
			conn.Close()
			return ErrClosed
		}
		pc.conn = conn
		t.mu.Unlock()
	}
	buf, err := appendWireFrame(pc.buf[:0], f)
	if err != nil {
		return err
	}
	pc.buf = buf
	if _, err := pc.conn.Write(buf); err != nil {
		// Drop the broken connection; the next send re-dials.
		pc.conn.Close()
		t.mu.Lock()
		pc.conn = nil
		t.mu.Unlock()
		return fmt.Errorf("transport: send to %v: %w", to, err)
	}
	return nil
}

// RecvFrame implements FrameLink.
func (t *SessTCP) RecvFrame() <-chan SessFrame { return t.inbox }

func (t *SessTCP) pushTo(sink func(SessFrame)) (stop func()) {
	t.sink.Store(&sink)
	return func() { t.sink.CompareAndSwap(&sink, nil) }
}

// Close implements FrameLink: it shuts the listener, every connection,
// and the inbox.
func (t *SessTCP) Close() error {
	t.mu.Lock()
	if t.closed.Load() {
		t.mu.Unlock()
		return nil
	}
	t.closed.Store(true)
	conns := make([]net.Conn, 0, len(t.conns)+len(t.accepted))
	for _, pc := range t.conns {
		if pc.conn != nil {
			conns = append(conns, pc.conn) //ocmxvet:allow mapiter -- teardown only: the order sockets are closed in is unobservable
		}
	}
	for c := range t.accepted {
		conns = append(conns, c) //ocmxvet:allow mapiter -- teardown only: the order sockets are closed in is unobservable
	}
	t.mu.Unlock()

	err := t.listener.Close()
	for _, c := range conns {
		c.Close()
	}
	t.wg.Wait()
	close(t.inbox)
	return err
}

var (
	_ FrameLink   = (*SessTCP)(nil)
	_ framePusher = (*SessTCP)(nil)
)
