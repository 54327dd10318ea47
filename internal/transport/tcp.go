package transport

//ocmxvet:live -- sockets, dial and write deadlines, and the accept and read goroutines

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
// re-armed only on another connection or with less than half of it left,
// so a write has between half of it and all of it; most writes set nothing.
const writeTimeout = 100 * time.Millisecond

// SessTCP is the FrameLink over TCP sockets: each node listens on its
// own address, and a pair of nodes shares one connection, read at both
// ends. A send writes on the pair's connection or, with none, dials one in
// the background; an accepted connection becomes the pair's when its
// first frame comes from a member this end has none to (crossed dials
// leave a pair two, each written by its dialer). One session frame
// travels per wire frame, in the fixed binary layout of wire.go. Under a
// session it is a reliable multi-process BatchTransport: a connection
// that ends is dropped by its reader, the next send re-dials, and the
// session's retransmission replays whatever the drop swallowed. SessTCP
// authenticates nobody: an accepted connection is trusted as far as its
// first frame's From, as every frame's From is. Production hardening
// (TLS, authentication, backoff) is out of scope for the reproduction.
type SessTCP struct {
	addrs map[ocube.Pos]string
	// dial opens the connection to a peer address (a hook for tests) under
	// ctx, which Close cancels.
	dial   func(ctx context.Context, addr string) (net.Conn, error)
	ctx    context.Context // cancelled, every reader closes its connection
	cancel context.CancelFunc

	listener net.Listener
	inbox    chan SessFrame
	// sink, when set, takes each inbound frame on the connection's reader
	// in place of inbox (pushTo).
	sink   atomic.Pointer[func(SessFrame)]
	closed atomic.Bool // set under mu; readLoop reads it without

	mu    sync.Mutex
	conns map[ocube.Pos]*peerConn
	wg    sync.WaitGroup
}

// peerConn is one peer's end of the pair. Its mu serializes writing to
// that peer only, so a peer that hangs in a write delays nobody else.
// conn, the pair's connection, is read and set under the link's mu alone:
// a reader adopts or drops it without waiting on a write (DESIGN.md §16).
// While dialing, the frames sent meanwhile wait encoded in queue, in
// order, even if a reader adopts a connection before the dial ends.
type peerConn struct {
	mu       sync.Mutex
	conn     net.Conn
	armed    net.Conn  // the connection deadline was set on
	deadline time.Time // armed's write deadline (writeTimeout)
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
		t.wg.Add(1)
		go t.readLoop(conn, nil)
	}
}

// peer returns to's peerConn, made on first use. The caller holds t.mu.
func (t *SessTCP) peer(to ocube.Pos) *peerConn {
	pc := t.conns[to]
	if pc == nil {
		pc = &peerConn{}
		t.conns[to] = pc
	}
	return pc
}

// readLoop reads conn until it ends, then drops it from its pair. pc is
// the peer a dialed conn belongs to; an accepted one (pc nil) learns its
// peer from its first frame and becomes the pair's connection if the pair
// has none.
func (t *SessTCP) readLoop(conn net.Conn, pc *peerConn) {
	defer t.wg.Done()
	defer context.AfterFunc(t.ctx, func() { conn.Close() })()
	defer func() {
		conn.Close()
		if pc != nil {
			t.mu.Lock()
			if pc.conn == conn {
				pc.conn = nil
			}
			t.mu.Unlock()
		}
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
		if _, member := t.addrs[f.From]; !member {
			return // no session state for a sender outside the cluster
		}
		if pc == nil {
			t.mu.Lock()
			if pc = t.peer(f.From); pc.conn == nil {
				pc.conn = conn
			}
			t.mu.Unlock()
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

// SendFrame implements FrameLink: it encodes the frame and writes it on
// the pair's connection. It does not wait for a dial: with no connection
// the frame queues behind one dialed in the background, which writes the
// queue in order once it connects and drops it if it fails.
func (t *SessTCP) SendFrame(to ocube.Pos, f SessFrame) error {
	if _, ok := t.addrs[to]; !ok {
		return fmt.Errorf("transport: no address for %v", to)
	}
	t.mu.Lock()
	pc := t.peer(to)
	t.mu.Unlock()

	pc.mu.Lock()
	defer pc.mu.Unlock()
	buf, err := appendWireFrame(pc.buf[:0], f)
	if err != nil {
		return err
	}
	pc.buf = buf
	t.mu.Lock()
	closed, conn := t.closed.Load(), pc.conn
	if !closed && conn == nil && !pc.dialing {
		t.wg.Add(1)
		pc.dialing = true
		go t.connect(to, pc)
	}
	t.mu.Unlock()
	switch {
	case closed:
		return ErrClosed
	case pc.dialing:
		pc.queue = append(pc.queue, append([]byte(nil), buf...))
		return nil
	}
	return t.write(to, pc, conn, buf)
}

// connect dials the peer, makes the connection the pair's, reads it and
// writes what queued meanwhile: if the dial fails, on the connection a
// reader adopted meanwhile, or nowhere.
func (t *SessTCP) connect(to ocube.Pos, pc *peerConn) {
	defer t.wg.Done()
	conn, err := t.dial(t.ctx, t.addrs[to])
	pc.mu.Lock()
	defer pc.mu.Unlock()
	queue := pc.queue
	pc.queue, pc.dialing = nil, false
	t.mu.Lock()
	if err == nil {
		pc.conn = conn
		t.wg.Add(1)
		go t.readLoop(conn, pc)
	}
	conn = pc.conn
	t.mu.Unlock()
	for _, b := range queue {
		if conn == nil || t.write(to, pc, conn, b) != nil {
			return
		}
	}
}

// write puts one encoded frame on conn, dropping the connection if that
// fails or misses its deadline; the next send re-dials. The caller holds
// pc.mu.
func (t *SessTCP) write(to ocube.Pos, pc *peerConn, conn net.Conn, b []byte) error {
	if now := time.Now(); conn != pc.armed || pc.deadline.Sub(now) < writeTimeout/2 {
		pc.armed, pc.deadline = conn, now.Add(writeTimeout)
		_ = conn.SetWriteDeadline(pc.deadline) // an error here resurfaces as the Write's
	}
	if _, err := conn.Write(b); err != nil {
		conn.Close()
		t.mu.Lock()
		if pc.conn == conn {
			pc.conn = nil
		}
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
	already := t.closed.Swap(true)
	t.mu.Unlock()
	if already {
		return nil
	}
	t.cancel() // a dial in flight gives up; every reader closes its connection
	err := t.listener.Close()
	t.wg.Wait()
	close(t.inbox)
	return err
}

var (
	_ FrameLink   = (*SessTCP)(nil)
	_ framePusher = (*SessTCP)(nil)
)
