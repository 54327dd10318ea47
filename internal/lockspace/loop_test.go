package lockspace

import (
	"context"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/ocube"
	"repro/internal/transport"
)

// Node-loop tests: the loop owns its inputs — one flush per drained burst,
// and no deadline that outlives it.

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
	mesh, err := transport.NewEnvMesh(2, 64)
	if err != nil {
		t.Fatal(err)
	}
	defer mesh.Close()
	finalized := make(chan ocube.Pos, 2)
	func() {
		nodes := make([]*Lockspace, 2)
		for i := range nodes {
			ls, err := New(Config{
				Node: core.Config{
					Self: ocube.Pos(i), P: 1, FT: true,
					Delta: time.Hour, CSEstimate: time.Hour, SuspicionSlack: time.Hour,
				},
				Transport: mesh.Endpoint(ocube.Pos(i)),
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
