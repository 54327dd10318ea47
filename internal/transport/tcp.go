package transport

import (
	"context"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ocube"
)

// dialTimeout bounds one lazy dial. A dial to a black-holed address gives
// up after this long instead of waiting out the kernel's SYN retries; the
// frames queued behind it count as lost, which every caller already
// tolerates.
const dialTimeout = 2 * time.Second

// writeTimeout bounds one write to a connected peer. A peer that accepts
// but stops reading fills the socket buffer, and a write that then waits
// on it holds up the step that makes it, with its node's mutex held. A
// write that misses the deadline drops the connection as a failed write
// does: the session retransmits, the next send re-dials. The deadline is
// re-armed only when less than half of it is left, so a write has between
// half of it and all of it, and most writes set nothing.
const writeTimeout = 100 * time.Millisecond

// SessTCP is the FrameLink over TCP sockets: each node listens on its
// own address and dials peers lazily, in the background; outbound
// connections are cached and serialized per peer; one session frame
// travels per wire frame, in the fixed binary layout of wire.go. Under a
// session it is a reliable multi-process BatchTransport: a dropped
// connection is re-dialed by the next send, and the session's
// retransmission replays whatever the drop swallowed. Suitable for the
// multi-process examples; production hardening (TLS, reconnection
// backoff) is out of scope for the reproduction.
type SessTCP struct {
	addrs map[ocube.Pos]string
	// dial opens the connection to a peer address (a hook for tests) under
	// ctx, which Close cancels.
	dial   func(ctx context.Context, addr string) (net.Conn, error)
	ctx    context.Context
	cancel context.CancelFunc

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

// peerConn is the outbound state of one peer. Its mu serializes writing
// to that peer only, so a peer that hangs in a write delays nobody else.
// conn is written with both mu and the link's mu held and may be read
// under either. While dialing, the frames sent meanwhile wait encoded in
// queue, in order.
type peerConn struct {
	mu       sync.Mutex
	conn     net.Conn
	deadline time.Time // conn's write deadline (writeTimeout)
	buf      []byte    // encode buffer, reused across sends
	dialing  bool
	queue    [][]byte
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
		dial: func(ctx context.Context, addr string) (net.Conn, error) {
			return (&net.Dialer{Timeout: dialTimeout}).DialContext(ctx, "tcp", addr)
		},
		listener: ln,
		inbox:    make(chan SessFrame, 1024),
		conns:    make(map[ocube.Pos]*peerConn),
		accepted: make(map[net.Conn]bool),
	}
	for k, v := range addrs {
		t.addrs[k] = v
	}
	t.ctx, t.cancel = context.WithCancel(context.Background())
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
// the peer. It does not wait for a dial: with no connection to the peer
// the frame queues behind one dialed in the background, which writes the
// queue in order once it connects and drops it if it fails.
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
	buf, err := appendWireFrame(pc.buf[:0], f)
	if err != nil {
		return err
	}
	pc.buf = buf
	if pc.conn == nil {
		if !pc.dialing {
			t.mu.Lock()
			if t.closed.Load() {
				t.mu.Unlock()
				return ErrClosed
			}
			t.wg.Add(1)
			t.mu.Unlock()
			pc.dialing = true
			go t.connect(to, pc)
		}
		pc.queue = append(pc.queue, append([]byte(nil), buf...))
		return nil
	}
	return t.write(to, pc, buf)
}

// connect dials the peer and writes what queued meanwhile.
func (t *SessTCP) connect(to ocube.Pos, pc *peerConn) {
	defer t.wg.Done()
	conn, err := t.dial(t.ctx, t.addrs[to])
	pc.mu.Lock()
	defer pc.mu.Unlock()
	queue := pc.queue
	pc.queue, pc.dialing = nil, false
	if err != nil {
		return
	}
	t.mu.Lock()
	if t.closed.Load() {
		t.mu.Unlock()
		conn.Close()
		return
	}
	pc.conn, pc.deadline = conn, time.Time{}
	t.mu.Unlock()
	for _, b := range queue {
		if t.write(to, pc, b) != nil {
			return
		}
	}
}

// write puts one encoded frame on pc's connection, dropping the
// connection if that fails or misses its deadline; the next send re-dials.
// The caller holds pc.mu.
func (t *SessTCP) write(to ocube.Pos, pc *peerConn, b []byte) error {
	if now := time.Now(); pc.deadline.Sub(now) < writeTimeout/2 {
		pc.deadline = now.Add(writeTimeout)
		_ = pc.conn.SetWriteDeadline(pc.deadline) // an error here resurfaces as the Write's
	}
	if _, err := pc.conn.Write(b); err != nil {
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

	t.cancel() // a dial in flight gives up
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
