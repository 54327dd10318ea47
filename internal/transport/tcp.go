package transport

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/ocube"
)

// dialTimeout bounds one lazy dial. A send to a black-holed address
// fails after this long instead of waiting out the kernel's SYN retries;
// the frame counts as lost, which every caller already tolerates.
const dialTimeout = 2 * time.Second

// tcpLink is the generic TCP machinery shared by the single-message
// transport (TCP), the envelope-batch transport (EnvTCP) and the session
// frame link (SessTCP): each node listens on its own address and dials
// peers lazily; outbound connections are cached and serialized per peer;
// frames of type F travel in the fixed binary layout of wire.go. Suitable
// for the multi-process examples; production hardening (TLS,
// reconnection backoff) is out of scope for the reproduction.
type tcpLink[F any] struct {
	self  ocube.Pos
	addrs map[ocube.Pos]string
	codec wireCodec[F]
	// dial opens the connection to a peer address (a hook for tests).
	dial func(addr string) (net.Conn, error)

	listener net.Listener
	inbox    chan F
	// sink, when set, takes each inbound frame on the connection's reader
	// in place of inbox (SessTCP.pushTo).
	sink   atomic.Pointer[func(F)]
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

// newTCPLink starts the listener and accept loop for self.
func newTCPLink[F any](self ocube.Pos, addrs map[ocube.Pos]string, codec wireCodec[F]) (*tcpLink[F], error) {
	addr, ok := addrs[self]
	if !ok {
		return nil, fmt.Errorf("transport: no address for self %v", self)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", addr, err)
	}
	t := &tcpLink[F]{
		self:  self,
		addrs: make(map[ocube.Pos]string, len(addrs)),
		codec: codec,
		dial: func(addr string) (net.Conn, error) {
			return net.DialTimeout("tcp", addr, dialTimeout)
		},
		listener: ln,
		inbox:    make(chan F, 1024),
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
func (t *tcpLink[F]) Addr() string { return t.listener.Addr().String() }

func (t *tcpLink[F]) acceptLoop() {
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

func (t *tcpLink[F]) readLoop(conn net.Conn) {
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
		f, err := t.codec.get(body)
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
			// Inbox overflow: drop. The failure machinery treats a lost
			// message like a transient fault and recovers.
		}
	}
}

// send encodes one frame and writes it to the peer, dialing lazily.
func (t *tcpLink[F]) send(to ocube.Pos, frame F) error {
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
	buf, err := appendWireFrame(pc.buf[:0], t.codec, frame)
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

// close shuts the listener, every connection, and the inbox.
func (t *tcpLink[F]) close() error {
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

// TCP is a Transport over TCP sockets with one binary-framed message per
// wire frame (examples/tcpcluster).
type TCP struct {
	link *tcpLink[core.Message]
}

// NewTCP starts a TCP transport for self, listening on addrs[self].
func NewTCP(self ocube.Pos, addrs map[ocube.Pos]string) (*TCP, error) {
	link, err := newTCPLink(self, addrs, messageCodec)
	if err != nil {
		return nil, err
	}
	return &TCP{link: link}, nil
}

// Addr returns the bound listen address (useful with ":0" ports).
func (t *TCP) Addr() string { return t.link.Addr() }

// Send implements Transport.
func (t *TCP) Send(m core.Message) error { return t.link.send(m.To, m) }

// Recv implements Transport.
func (t *TCP) Recv() <-chan core.Message { return t.link.inbox }

// Close implements Transport.
func (t *TCP) Close() error { return t.link.close() }

var _ Transport = (*TCP)(nil)

// EnvTCP is a BatchTransport over TCP sockets with one binary-framed
// envelope batch per wire frame — the multi-process wire of a lockspace.
// All instances share one connection mesh: the per-peer connection
// carries every instance's traffic, batched per destination by the
// sender.
type EnvTCP struct {
	link *tcpLink[[]core.Envelope]
}

// NewEnvTCP starts an envelope-batch transport for self, listening on
// addrs[self].
func NewEnvTCP(self ocube.Pos, addrs map[ocube.Pos]string) (*EnvTCP, error) {
	link, err := newTCPLink(self, addrs, batchCodec)
	if err != nil {
		return nil, err
	}
	return &EnvTCP{link: link}, nil
}

// Addr returns the bound listen address (useful with ":0" ports).
func (t *EnvTCP) Addr() string { return t.link.Addr() }

// SendBatch implements BatchTransport. The batch is encoded before
// returning, so the caller may reuse its buffer.
func (t *EnvTCP) SendBatch(to ocube.Pos, batch []core.Envelope) error {
	if len(batch) == 0 {
		return nil
	}
	return t.link.send(to, batch)
}

// RecvBatch implements BatchTransport.
func (t *EnvTCP) RecvBatch() <-chan []core.Envelope { return t.link.inbox }

// Close implements BatchTransport.
func (t *EnvTCP) Close() error { return t.link.close() }

var _ BatchTransport = (*EnvTCP)(nil)
