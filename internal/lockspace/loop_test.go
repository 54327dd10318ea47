package lockspace

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/ocube"
	"repro/internal/transport"
)

// Node-stepping tests: whoever has the input steps the node to completion
// — one flush per client call and per drained burst, only live deadlines
// in the heap, none that outlives the loop.

// stallTransport is a BatchTransport under the test's thumb: batches put
// on in reach the loop, and every SendBatch announces the size of its
// batch on entered and then waits for a token on proceed, so the test
// decides how long the loop stays stalled in a flush.
type stallTransport struct {
	in      chan []core.Envelope
	entered chan int
	proceed chan struct{}
}

func (t *stallTransport) SendBatch(_ ocube.Pos, batch []core.Envelope) error {
	t.entered <- len(batch)
	<-t.proceed
	return nil
}

func (t *stallTransport) RecvBatch() <-chan []core.Envelope { return t.in }

func (t *stallTransport) Close() error { return nil }

// requestFor returns the batch node 1 sends node 0 when it first wants
// instance id: taken from a real state machine rather than spelled out.
func requestFor(t *testing.T, id uint64) []core.Envelope {
	t.Helper()
	n, err := core.NewNode(core.Config{Self: 1, P: 1})
	if err != nil {
		t.Fatal(err)
	}
	effs, err := n.RequestCS()
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range effs {
		if s, ok := e.(*core.Send); ok {
			return []core.Envelope{{Instance: id, Msg: s.Msg}}
		}
	}
	t.Fatal("a first request sent nothing")
	return nil
}

func (t *stallTransport) nextSend(tt *testing.T) int {
	tt.Helper()
	select {
	case n := <-t.entered:
		return n
	case <-time.After(10 * time.Second):
		tt.Fatal("the loop sent nothing")
		return 0
	}
}

// TestLoopFlushesOncePerBurst: envelopes that a burst of inputs sends to
// one peer leave in one batch, not one per input — and a lone input's
// envelope still leaves at once, with nothing else to wait for. Node 0
// holds every pristine instance's token, so each request it receives
// from node 1 is answered with one envelope back.
func TestLoopFlushesOncePerBurst(t *testing.T) {
	const burst = 64
	tr := &stallTransport{
		in:      make(chan []core.Envelope, burst), // holds the whole burst while the loop is stalled
		entered: make(chan int),
		proceed: make(chan struct{}),
	}
	ls, err := New(Config{Node: core.Config{Self: 0, P: 1}, Transport: tr})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		close(tr.proceed) // nothing stalls any more
		ls.Close()
	}()

	// A lone envelope: its answer is in SendBatch while the loop has no
	// other input to handle. The loop stays stalled there.
	tr.in <- requestFor(t, 1)
	if n := tr.nextSend(t); n != 1 {
		t.Fatalf("lone request answered with a batch of %d, want 1", n)
	}

	// The burst queues up behind the stalled loop.
	for i := 0; i < burst; i++ {
		tr.in <- requestFor(t, uint64(100+i))
	}
	tr.proceed <- struct{}{}
	sends, left := 0, burst
	for left > 0 {
		n := tr.nextSend(t)
		sends++
		left -= n
		if left > 0 {
			tr.proceed <- struct{}{}
		}
	}
	if left != 0 || sends > 2 {
		t.Errorf("%d answers left in %d SendBatch calls (%d over), want all %d in at most 2", burst, sends, -left, burst)
	}
}

// TestCloseDropsPendingDeadlines: a closed node is garbage. Both nodes
// close with deadlines pending for an hour — the holder's lease check,
// the fault-tolerance timers the hand-over armed — and nothing the
// runtime keeps may still refer to either: their finalizers run. With a
// runtime timer per deadline the closures held every closed node, and
// every instance it hosted, until the last of them fired.
func TestCloseDropsPendingDeadlines(t *testing.T) {
	sessions, _ := newSessions(t, 2)
	finalized := make(chan ocube.Pos, 2)
	func() {
		nodes := make([]*Lockspace, 2)
		for i := range nodes {
			ls, err := New(Config{
				Node: core.Config{
					Self: ocube.Pos(i), P: 1, FT: true,
					Delta: time.Hour, CSEstimate: time.Hour, SuspicionSlack: time.Hour,
				},
				Transport: sessions[i],
				LeaseTTL:  time.Hour,
			})
			if err != nil {
				t.Fatal(err)
			}
			runtime.SetFinalizer(ls, func(ls *Lockspace) { finalized <- ls.Self() })
			nodes[i] = ls
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if _, err := nodes[1].Lock(ctx, "held"); err != nil {
			t.Fatal(err)
		}
		if _, err := nodes[0].Lock(ctx, "held-too"); err != nil {
			t.Fatal(err)
		}
		for _, ls := range nodes {
			ls.Close()
		}
	}()
	// A finalizer runs on its own goroutine some time after the collection
	// that found its object dead, hence the short waits.
	seen := 0
	for tries := 0; seen < 2; tries++ {
		if tries == 20 {
			t.Fatalf("%d of 2 closed nodes still reachable after %d collections: something pending outlived its loop", 2-seen, tries)
		}
		runtime.GC()
		select {
		case <-finalized:
			seen++
		case <-time.After(50 * time.Millisecond):
		}
	}
}

// newSessions builds the transports of n nodes the way the benchmark's
// live workloads do, for tests that bring their own to New: each node its
// own session on one in-memory SessMesh. stop closes them; it also
// runs with the test's cleanup.
func newSessions(t *testing.T, n int) (sessions []*transport.Session, stop func()) {
	t.Helper()
	mesh, err := transport.NewSessMesh(n, 4096)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		sessions = append(sessions, transport.NewSession(ocube.Pos(i), mesh.Endpoint(ocube.Pos(i)), transport.SessionConfig{}))
	}
	stop = func() {
		for _, sess := range sessions {
			sess.Close()
		}
		mesh.Close()
	}
	t.Cleanup(stop)
	return sessions, stop
}

// newSessMeshSpace starts 2^p nodes with Start on one in-memory SessMesh,
// each from tmpl with its own position filled in. stop closes the nodes,
// their sessions and the mesh; it also runs with the test's cleanup.
func newSessMeshSpace(t *testing.T, p int, tmpl Config) (nodes []*Lockspace, stop func()) {
	t.Helper()
	mesh, err := transport.NewSessMesh(1<<p, 4096)
	if err != nil {
		t.Fatal(err)
	}
	return startOnMesh(t, mesh, p, tmpl)
}

// startOnMesh is newSessMeshSpace on a mesh the caller built, for a test
// that sets the mesh's Drop before any traffic.
func startOnMesh(t *testing.T, mesh *transport.SessMesh, p int, tmpl Config) (nodes []*Lockspace, stop func()) {
	t.Helper()
	for i := 0; i < 1<<p; i++ {
		cfg := tmpl
		cfg.Node.Self, cfg.Node.P = ocube.Pos(i), p
		ls, err := Start(mesh.Endpoint(cfg.Node.Self), transport.SessionConfig{}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, ls)
	}
	stop = func() {
		for _, ls := range nodes {
			ls.Close()
		}
		mesh.Close()
	}
	t.Cleanup(stop)
	return nodes, stop
}

// awaitQueued returns once key has n local waiters at ls, its holder
// included: the instant a test that wants a waiter queued is waiting
// for. What happens to a queued waiter is pinned step by step in
// machine_test.go; the live tests keep one smoke per behaviour.
func awaitQueued(t *testing.T, ls *Lockspace, key string, n int) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); ; runtime.Gosched() {
		ls.mu.Lock()
		got := queued(ls.m, KeyInstance(key))
		ls.mu.Unlock()
		if got == n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d waiters queued for %q at node %d, want %d", got, key, ls.Self(), n)
		}
	}
}

// quietFT is the fault-tolerant template of a cluster no failure handling
// should ever fire in: every timeout a minute, every lease an hour.
func quietFT(reg *obs.Registry) Config {
	return Config{
		Node: core.Config{
			FT: true, EpochFence: true,
			Delta: time.Minute, CSEstimate: time.Minute, SuspicionSlack: time.Minute,
		},
		LeaseTTL: time.Hour,
		Metrics:  reg,
	}
}

// TestWheelHoldsOnlyLiveDeadlines: a deadline leaves the heap with the
// step that cancels it. Every node of an 8-node cluster locks and unlocks
// 256 keys, all nodes at once; at rest nothing is pending anywhere — no
// lease check of a released hold, no suspicion or transfer-ack timer the
// protocol has since cancelled — and the gauge says so. With holds
// outstanding the holder has exactly their lease checks pending, and
// what is pending elsewhere (a lender's token-return timer) is live too.
func TestWheelHoldsOnlyLiveDeadlines(t *testing.T) {
	const keys, holds, holder = 256, 5, 5
	reg := obs.NewRegistry()
	nodes, _ := newSessMeshSpace(t, 3, quietFT(reg))
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	for i, ls := range nodes {
		wg.Add(1)
		go func(i int, ls *Lockspace) {
			defer wg.Done()
			for j := 0; j < keys; j++ {
				key := "k" + strconv.Itoa((j+i*keys/len(nodes))%keys)
				fence, err := ls.Lock(ctx, key)
				if err == nil {
					err = ls.Unlock(key, fence)
				}
				if err != nil {
					t.Errorf("node %d key %s: %v", i, key, err)
					return
				}
			}
		}(i, ls)
	}
	wg.Wait()
	// pending counts a node's heap entries between two steps, checking
	// that each is live and that the gauge agrees with the heap.
	pending := func(when string, ls *Lockspace) (leases, timers int) {
		t.Helper()
		ls.mu.Lock()
		defer ls.mu.Unlock()
		for _, ent := range ls.m.wheel.ents {
			st := ls.m.insts[ent.ref]
			switch {
			case ent.kind == wheelHold && st.held:
				leases++
			case ent.kind != wheelHold && ent.gen == st.node.TimerGen(ent.kind):
				timers++
			default:
				t.Errorf("%s: node %d holds a dead deadline %+v", when, ls.Self(), ent)
			}
		}
		gauge := reg.Gauge("ocmx_lock_deadlines_pending", "", "node", strconv.Itoa(int(ls.Self()))).Value()
		if gauge != float64(ls.m.Books().Pending) {
			t.Errorf("%s: node %d's gauge reads %g with %d deadlines in the heap", when, ls.Self(), gauge, ls.m.Books().Pending)
		}
		return leases, timers
	}
	// With fault tolerance on, whatever is still in flight — a request, a
	// token, its ack — has a live watchdog somewhere, so the cluster is at
	// rest once every heap is empty. A corpse would stay: nothing here
	// fires within the test.
	atRest := func(when string) {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
			left := 0
			for _, ls := range nodes {
				leases, timers := pending(when, ls)
				left += leases + timers
			}
			if left == 0 {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s: %d deadlines still pending across the cluster, want none", when, left)
			}
		}
	}
	atRest("at rest")

	fences := make([]uint64, holds)
	for k := range fences {
		var err error
		if fences[k], err = nodes[holder].Lock(ctx, "k"+strconv.Itoa(k)); err != nil {
			t.Fatal(err)
		}
	}
	for i, ls := range nodes {
		leases, _ := pending("with holds outstanding", ls)
		if want := map[bool]int{true: holds}[i == holder]; leases != want {
			t.Errorf("with %d holds at node %d: node %d has %d lease checks pending, want %d", holds, holder, i, leases, want)
		}
	}
	for k, fence := range fences {
		if err := nodes[holder].Unlock("k"+strconv.Itoa(k), fence); err != nil {
			t.Fatal(err)
		}
	}
	atRest("after the holds")
}

// stepTransport is a BatchTransport that hands every SendBatch to the
// test's hook, on the sending goroutine, and delivers what the test puts
// on in.
type stepTransport struct {
	in     chan []core.Envelope
	onSend func(to ocube.Pos, batch []core.Envelope)
}

func (t *stepTransport) SendBatch(to ocube.Pos, batch []core.Envelope) error {
	t.onSend(to, append([]core.Envelope(nil), batch...))
	return nil
}

func (t *stepTransport) RecvBatch() <-chan []core.Envelope { return t.in }

func (t *stepTransport) Close() error { return nil }

// TestCallFlushesBeforeReturn: a client call is a whole step. Node 1's
// loop gets no input until the test provides some, so whatever the node
// sends before that, the calling goroutine sent — and it sent it inside
// its step, ls.mu still held: a Lock whose token is remote has handed
// its request to SendBatch before it parks, and an Unlock that returns a
// loan has sent the token by the time it returns. Node 0 is a state
// machine in the test's hands.
func TestCallFlushesBeforeReturn(t *testing.T) {
	const key = "remote"
	id := KeyInstance(key)
	// In a cube of four, node 1 is not node 0's last son: node 0 stays
	// the root and lends.
	peer, err := core.NewNode(core.Config{Self: 0, P: 2})
	if err != nil {
		t.Fatal(err)
	}
	var ls *Lockspace
	sent := make(chan core.Message, 4)
	tr := &stepTransport{in: make(chan []core.Envelope, 1)}
	tr.onSend = func(to ocube.Pos, batch []core.Envelope) {
		if ls.mu.TryLock() {
			ls.mu.Unlock()
			t.Error("SendBatch ran outside the sender's step: ls.mu was free")
		}
		if to != 0 || len(batch) != 1 || batch[0].Instance != id {
			t.Errorf("sent %+v to %v, want one envelope of instance %d to node 0", batch, to, id)
		}
		sent <- batch[0].Msg
	}
	if ls, err = New(Config{Node: core.Config{Self: 1, P: 2}, Transport: tr}); err != nil {
		t.Fatal(err)
	}
	defer ls.Close()

	type grant struct {
		fence uint64
		err   error
	}
	got := make(chan grant, 1)
	go func() {
		fence, err := ls.Lock(context.Background(), key)
		got <- grant{fence, err}
	}()
	var request core.Message
	select {
	case request = <-sent:
	case g := <-got:
		t.Fatalf("Lock returned (%d, %v) with the token at node 0", g.fence, g.err)
	case <-time.After(10 * time.Second):
		t.Fatal("Lock sent no request")
	}
	// Node 0 answers with the token; the loop brings the grant.
	for _, e := range peer.HandleMessage(request) {
		if s, ok := e.(*core.Send); ok {
			tr.in <- []core.Envelope{{Instance: id, Msg: s.Msg}}
		}
	}
	var g grant
	select {
	case g = <-got:
	case <-time.After(10 * time.Second):
		t.Fatal("the token arrived and Lock did not return")
	}
	if g.err != nil {
		t.Fatal(g.err)
	}
	if err := ls.Unlock(key, g.fence); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-sent:
		if m.Kind != core.KindToken {
			t.Errorf("Unlock sent %v, want the token going back to its lender", m)
		}
	default:
		t.Fatal("Unlock returned before the borrowed token was sent")
	}
}

// TestCutPeerDoesNotParkCallers: a peer that is alive but cut off — every
// data frame to it lost, so nothing is ever acknowledged and §5 repair
// never writes it off as it would a dead one — must cost its neighbours
// memory, not their callers. Node 1 asks node 0 for 200 different keys,
// each Lock giving up after 2 ms; every request is one more frame owed to
// node 0, and past the session's 64-frame window SendBatch used to wait
// for a slot inside flush, with ls.mu held: the 65th call parked for
// good, and so did every later caller of the node and its Close. Every
// call must return with its context's error, none granted, and Close
// must return.
func TestCutPeerDoesNotParkCallers(t *testing.T) {
	const calls = 200
	mesh, err := transport.NewSessMesh(2, 4096)
	if err != nil {
		t.Fatal(err)
	}
	defer mesh.Close()
	mesh.Drop = func(to ocube.Pos, f transport.SessFrame) bool { return to == 0 && f.Seq != 0 }
	nodes := make([]*Lockspace, 2)
	for i := range nodes {
		self := ocube.Pos(i)
		sess := transport.NewSession(self, mesh.Endpoint(self), transport.SessionConfig{})
		defer sess.Close()
		if nodes[i], err = New(Config{Node: core.Config{Self: self, P: 1}, Transport: sess}); err != nil {
			t.Fatal(err)
		}
	}

	type outcome struct {
		call int
		err  error
	}
	done := make(chan outcome, 1)
	go func() {
		for i := 0; i < calls; i++ {
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Millisecond)
			_, err := nodes[1].Lock(ctx, "cut-"+strconv.Itoa(i))
			cancel()
			if !errors.Is(err, context.DeadlineExceeded) {
				done <- outcome{i, err}
				return
			}
		}
		done <- outcome{calls, nil}
	}()
	select {
	case o := <-done:
		if o.call != calls {
			t.Fatalf("call %d across the cut returned %v, want its deadline", o.call, o.err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("a Lock call is parked behind the cut peer's full window")
	}
	closed := make(chan struct{})
	go func() {
		nodes[1].Close()
		nodes[0].Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close is parked behind the cut peer's full window")
	}
}

// TestCallsRaceIngressAndClose: client calls, received bursts and Close
// all step the same node under one mutex, and none may strand another.
// Sixteen clients hammer four keys on two nodes — Lock, Keepalive,
// Unlock, and Locks whose context is already done or ends mid-wait —
// while each node's loop takes the other's batches, and node 1 closes
// mid-flight with calls inside it and holds outstanding. Every call
// returns within the patience with nil, ErrClosed, ErrLeaseExpired or its
// context's error; no two clients are ever inside one key, and fences
// only rise, through the gate a FencedResource is made of; and once
// everything is closed no goroutine is left behind.
func TestCallsRaceIngressAndClose(t *testing.T) {
	const clients, keys, patience = 16, 4, 5 * time.Second
	baseline := runtime.NumGoroutine()
	nodes, closeAll := newSessMeshSpace(t, 1, quietFT(nil))

	var gate metrics.FenceGate
	var inside [keys]atomic.Int32
	var stop atomic.Bool
	var grants atomic.Int64
	// timed runs one call and holds it to the patience and to the errors
	// a call may return; ctxErr is the context's, nil when it has none.
	timed := func(what string, ctxErr func() error, call func() error) error {
		start := time.Now()
		err := call()
		if took := time.Since(start); took > patience {
			t.Errorf("%s took %v", what, took)
		}
		switch {
		case err == nil, errors.Is(err, ErrClosed), errors.Is(err, ErrLeaseExpired):
		case ctxErr != nil && ctxErr() != nil && errors.Is(err, ctxErr()):
		default:
			t.Errorf("%s = %v", what, err)
		}
		return err
	}
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			ls := nodes[c%2]
			rng := rand.New(rand.NewSource(int64(c)))
			for !stop.Load() {
				k := rng.Intn(keys)
				key := "k" + strconv.Itoa(k)
				// One Lock in four gets a context that is done already or
				// ends while it waits; the rest wait out a dead peer's
				// token for at most 50ms.
				wait := 50 * time.Millisecond
				if rng.Intn(4) == 0 {
					wait = time.Duration(rng.Intn(200)) * time.Microsecond
				}
				ctx, cancel := context.WithTimeout(context.Background(), wait)
				var fence uint64
				err := timed("Lock", ctx.Err, func() (err error) { fence, err = ls.Lock(ctx, key); return })
				cancel()
				if err != nil {
					continue
				}
				grants.Add(1)
				if n := inside[k].Add(1); n != 1 {
					t.Errorf("%d clients inside %s", n, key)
				}
				if !gate.Admit(key, fence) {
					t.Errorf("fence %d of %s is below one already admitted", fence, key)
				}
				if rng.Intn(2) == 0 {
					timed("Keepalive", nil, func() error { return ls.Keepalive(key, fence) })
				}
				inside[k].Add(-1)
				timed("Unlock", nil, func() error { return ls.Unlock(key, fence) })
			}
		}(c)
	}
	time.Sleep(150 * time.Millisecond)
	nodes[1].Close() // mid-flight: calls inside it, holds outstanding, batches arriving
	time.Sleep(100 * time.Millisecond)
	stop.Store(true)
	finished := make(chan struct{})
	go func() { wg.Wait(); close(finished) }()
	select {
	case <-finished:
	case <-time.After(2 * patience):
		t.Fatal("clients still inside a call long after the patience")
	}
	if grants.Load() == 0 {
		t.Error("no Lock was ever granted")
	}
	closeAll()
	for tries := 0; runtime.NumGoroutine() > baseline; tries++ {
		if tries == 100 {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines, %d before the cluster existed:\n%s",
				runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(50 * time.Millisecond)
	}
}
