package opencubemx

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"net"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"repro/internal/lockspace"
	"repro/internal/obs"
	"repro/internal/transport"
)

func TestNewClusterValidation(t *testing.T) {
	for _, n := range []int{0, -4, 3, 6, 12} {
		if _, err := NewCluster(n); err == nil {
			t.Errorf("NewCluster(%d) succeeded, want error", n)
		}
	}
}

func TestClusterMutualExclusionLive(t *testing.T) {
	// The live goroutine runtime: concurrent lockers incrementing a
	// shared counter under the distributed mutex must never race.
	c, err := NewCluster(8)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const perNode = 10
	var (
		counter int64 // protected by the distributed mutex
		inCS    int64
		wg      sync.WaitGroup
	)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	for i := 0; i < c.N(); i++ {
		m, err := c.Mutex(i)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < perNode; k++ {
				if err := m.Lock(ctx); err != nil {
					t.Errorf("lock: %v", err)
					return
				}
				if atomic.AddInt64(&inCS, 1) != 1 {
					t.Error("mutual exclusion violated")
				}
				counter++
				atomic.AddInt64(&inCS, -1)
				if err := m.Unlock(); err != nil {
					t.Errorf("unlock: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if counter != int64(c.N()*perNode) {
		t.Errorf("counter = %d, want %d", counter, c.N()*perNode)
	}
}

func TestClusterWithFaultToleranceLive(t *testing.T) {
	c, err := NewCluster(4, WithFaultTolerance(5*time.Millisecond, time.Millisecond, 200*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	m, err := c.Mutex(3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := m.Lock(ctx); err != nil {
			t.Fatalf("lock %d: %v", i, err)
		}
		if err := m.Unlock(); err != nil {
			t.Fatalf("unlock %d: %v", i, err)
		}
	}
}

// TestClusterServesMutexAndLockspace: one Cluster gives node i both a
// Mutex and a Lockspace handle, and they are independent locks — a held
// mutex does not block a keyed Lock on another key, and a held key does
// not block the mutex.
func TestClusterServesMutexAndLockspace(t *testing.T) {
	c, err := NewCluster(4)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < c.N(); i++ {
		m, err := c.Mutex(i)
		if err != nil {
			t.Fatal(err)
		}
		ls, err := c.Lockspace(i)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		if err := m.Lock(ctx); err != nil {
			t.Fatalf("node %d: mutex: %v", i, err)
		}
		fence, err := ls.Lock(ctx, "orders/1")
		if err != nil {
			t.Fatalf("node %d: keyed Lock while the mutex is held: %v", i, err)
		}
		if err := m.Unlock(); err != nil {
			t.Fatal(err)
		}
		if err := m.Lock(ctx); err != nil {
			t.Fatalf("node %d: mutex while a key is held: %v", i, err)
		}
		if err := m.Unlock(); err != nil {
			t.Fatal(err)
		}
		if err := ls.Unlock("orders/1", fence); err != nil {
			t.Fatal(err)
		}
		cancel()
	}
}

// TestFaultToleranceIsFenced: the failure handling the public options
// turn on is the configuration every live rig validates — §5 recovery
// with epoch-fenced tokens — and without the option neither is on.
func TestFaultToleranceIsFenced(t *testing.T) {
	ft := config(3, 2, []Option{WithFaultTolerance(5*time.Millisecond, time.Millisecond, 100*time.Millisecond), WithLeaseTTL(time.Second)})
	if n := ft.Node; !n.FT || !n.EpochFence || n.Self != 3 || n.P != 2 || n.SuspicionSlack != 100*time.Millisecond {
		t.Errorf("WithFaultTolerance resolved to %+v, want FT and EpochFence at position 3 of 2^2", n)
	}
	if ft.LeaseTTL != time.Second {
		t.Errorf("LeaseTTL = %v, want 1s", ft.LeaseTTL)
	}
	if n := config(0, 1, nil).Node; n.FT || n.EpochFence {
		t.Errorf("no options resolved to %+v, want FT and EpochFence off", n)
	}
}

// TestMutexSecondLockQueues: callers sharing one node's Mutex queue
// behind each other like sync.Mutex — the second Lock waits for the
// first holder's Unlock, it is not refused — and an Unlock with nothing
// held is an error.
func TestMutexSecondLockQueues(t *testing.T) {
	c, err := NewCluster(2)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	m, _ := c.Mutex(1)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := m.Lock(ctx); err != nil {
		t.Fatal(err)
	}
	second := make(chan error, 1)
	go func() { second <- m.Lock(ctx) }()
	select {
	case err := <-second:
		t.Fatalf("second Lock returned %v while the first was held", err)
	case <-time.After(50 * time.Millisecond):
	}
	if err := m.Unlock(); err != nil {
		t.Fatal(err)
	}
	if err := <-second; err != nil {
		t.Fatalf("queued Lock: %v", err)
	}
	if err := m.Unlock(); err != nil {
		t.Fatal(err)
	}
	if err := m.Unlock(); !errors.Is(err, lockspace.ErrNotLocked) {
		t.Errorf("unlock with nothing held = %v, want ErrNotLocked", err)
	}
}

// TestLeaseExpiryServesWaiter: under WithLeaseTTL a holder that goes
// silent on one node loses the lock after one TTL and a waiter on
// another node is served, with a higher fence — through a Lockspace
// handle and through a Mutex alike.
func TestLeaseExpiryServesWaiter(t *testing.T) {
	const ttl = 50 * time.Millisecond
	type handle struct {
		lock   func(context.Context) (uint64, error)
		unlock func(fence uint64) error
	}
	for _, tc := range []struct {
		name string
		open func(t *testing.T) [2]handle
		// stale is what the expired holder's own release reports.
		stale error
	}{
		{"Lockspace", func(t *testing.T) (hs [2]handle) {
			c, err := NewCluster(2, WithLeaseTTL(ttl))
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { c.Close() })
			for i := range hs {
				ls, _ := c.Lockspace(i)
				hs[i] = handle{
					func(ctx context.Context) (uint64, error) { return ls.Lock(ctx, "k") },
					func(fence uint64) error { return ls.Unlock("k", fence) },
				}
			}
			return hs
		}, ErrLeaseExpired},
		{"Mutex", func(t *testing.T) (hs [2]handle) {
			c, err := NewCluster(2, WithLeaseTTL(ttl))
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { c.Close() })
			for i := range hs {
				m, _ := c.Mutex(i)
				hs[i] = handle{m.LockFenced, func(uint64) error { return m.Unlock() }}
			}
			return hs
		}, lockspace.ErrNotLocked},
	} {
		t.Run(tc.name, func(t *testing.T) {
			hs := tc.open(t)
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			f1, err := hs[0].lock(ctx)
			if err != nil {
				t.Fatal(err)
			}
			// The holder neither unlocks nor heartbeats.
			start := time.Now()
			f2, err := hs[1].lock(ctx)
			if err != nil {
				t.Fatalf("waiter after the lapsed lease: %v", err)
			}
			if elapsed := time.Since(start); elapsed < ttl/2 {
				t.Errorf("lock reclaimed after %v, before the lease could lapse", elapsed)
			}
			if f2 <= f1 {
				t.Errorf("reclaiming grant's fence = %d, want > %d", f2, f1)
			}
			if err := hs[0].unlock(f1); !errors.Is(err, tc.stale) {
				t.Errorf("expired holder's unlock = %v, want %v", err, tc.stale)
			}
			if err := hs[1].unlock(f2); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestKilledNodeDoesNotWedgeSurvivors: a node killed for good costs the
// others one §5 repair, not their liveness. A session blocks its sender
// once a full window of frames to one peer is unacknowledged, and a node
// flushes with its mutex held, so a survivor that kept sending to the
// dead peer would stop for everyone: repair has to turn the traffic away
// long before 64 frames are owed to it.
func TestKilledNodeDoesNotWedgeSurvivors(t *testing.T) {
	c, err := NewCluster(8, WithFaultTolerance(5*time.Millisecond, time.Millisecond, 100*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	cycle := func(i int) error {
		m, err := c.Mutex(i)
		if err != nil {
			return err
		}
		if err := m.Lock(ctx); err != nil {
			return err
		}
		return m.Unlock()
	}
	if err := cycle(7); err != nil {
		t.Fatal(err)
	}
	if err := c.Kill(4); err != nil {
		t.Fatal(err)
	}
	if err := c.Kill(8); err == nil {
		t.Error("Kill(8) succeeded on an 8-node cluster")
	}
	if err := cycle(4); !errors.Is(err, lockspace.ErrClosed) {
		t.Errorf("lock on the killed node = %v, want ErrClosed", err)
	}
	survivors := []int{7, 6, 1, 5, 3, 2, 0}
	for k := 0; k < 3000; k++ {
		i := survivors[k%len(survivors)]
		if err := cycle(i); err != nil {
			t.Fatalf("pair %d on node %d: %v", k, i, err)
		}
	}
}

func TestMutexOutOfRange(t *testing.T) {
	c, err := NewCluster(2)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Mutex(5); err == nil {
		t.Error("Mutex(5) succeeded on a 2-node cluster")
	}
	if _, err := c.Mutex(-1); err == nil {
		t.Error("Mutex(-1) succeeded")
	}
}

func TestLockContextCancellation(t *testing.T) {
	c, err := NewCluster(2)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	m0, _ := c.Mutex(0)
	m1, _ := c.Mutex(1)
	ctx := context.Background()
	if err := m0.Lock(ctx); err != nil {
		t.Fatal(err)
	}
	// Node 1 gives up while waiting.
	short, cancel := context.WithTimeout(ctx, 50*time.Millisecond)
	defer cancel()
	if err := m1.Lock(short); err == nil {
		t.Fatal("lock succeeded while the token was held elsewhere")
	}
	if err := m0.Unlock(); err != nil {
		t.Fatal(err)
	}
	// The abandoned grant is auto-released; the mutex remains usable.
	again, cancel2 := context.WithTimeout(ctx, 10*time.Second)
	defer cancel2()
	if err := m0.Lock(again); err != nil {
		t.Fatalf("relock after abandonment: %v", err)
	}
	if err := m0.Unlock(); err != nil {
		t.Fatal(err)
	}
}

func TestTCPNodeValidation(t *testing.T) {
	if _, err := NewTCPNode(0, []string{"a", "b", "c"}); err == nil {
		t.Error("3-member TCP cluster accepted")
	}
	if _, err := NewTCPNode(5, []string{"127.0.0.1:0", "127.0.0.1:0"}); err == nil {
		t.Error("out-of-range self accepted")
	}
}

// tcpNodes starts an n-member TCP cluster on free loopback ports and
// returns the addresses and the nodes, the caller's to close. A port is
// reserved by binding and releasing a listener, and another process can
// take it before its node binds it: then the nodes started are closed and
// the whole cluster starts again on new ports.
func tcpNodes(t *testing.T, n int) ([]string, []*TCPNode) {
	t.Helper()
	for try := 1; ; try++ {
		addrs := make([]string, n)
		for i := range addrs {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			addrs[i] = ln.Addr().String()
			ln.Close()
		}
		nodes := make([]*TCPNode, 0, n)
		var err error
		for i := range addrs {
			var node *TCPNode
			if node, err = NewTCPNode(i, addrs); err != nil {
				break
			}
			nodes = append(nodes, node)
		}
		if err == nil {
			return addrs, nodes
		}
		for _, node := range nodes {
			node.Close()
		}
		if !errors.Is(err, syscall.EADDRINUSE) || try == 10 {
			t.Fatal(err)
		}
	}
}

func TestTCPClusterLive(t *testing.T) {
	// Four nodes over real loopback TCP sockets, each locking in turn.
	_, nodes := tcpNodes(t, 4)
	for _, n := range nodes {
		defer n.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	var counter int
	var wg sync.WaitGroup
	for _, n := range nodes {
		m := n.Mutex()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 3; k++ {
				if err := m.Lock(ctx); err != nil {
					t.Errorf("tcp lock: %v", err)
					return
				}
				counter++ // protected by the distributed mutex
				if err := m.Unlock(); err != nil {
					t.Errorf("tcp unlock: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if counter != 12 {
		t.Errorf("counter = %d, want 12", counter)
	}
}

// TestTCPNodeRestart: a member that has not yet taken part is closed and
// started again on the same address — the listener is released, and its
// peers take the new process's frames as a new incarnation's — and then
// acquires the mutex.
func TestTCPNodeRestart(t *testing.T) {
	addrs, nodes := tcpNodes(t, 2)
	n0, first := nodes[0], nodes[1]
	defer n0.Close()
	if first.Addr() != addrs[1] {
		t.Errorf("Addr = %s, want %s", first.Addr(), addrs[1])
	}
	if err := first.Close(); err != nil {
		t.Fatal(err)
	}
	n1, err := NewTCPNode(1, addrs)
	if err != nil {
		t.Fatalf("restart on the same address: %v", err)
	}
	defer n1.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for _, m := range []*Mutex{n1.Mutex(), n0.Mutex(), n1.Mutex()} {
		if err := m.Lock(ctx); err != nil {
			t.Fatal(err)
		}
		if err := m.Unlock(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestLockspaceClusterLive(t *testing.T) {
	c, err := NewCluster(4)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Lockspace(4); err == nil {
		t.Error("out-of-range lockspace handle accepted")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	// Every node increments two per-key counters; each counter is
	// protected only by its own key's distributed mutex, so both totals
	// must come out exact.
	var counts [2]int
	var wg sync.WaitGroup
	for i := 0; i < c.N(); i++ {
		ls, err := c.Lockspace(i)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for k := 0; k < 3; k++ {
				idx := (id + k) % 2
				key := fmt.Sprintf("key-%d", idx)
				fence, err := ls.Lock(ctx, key)
				if err != nil {
					t.Errorf("node %d: lock %s: %v", id, key, err)
					return
				}
				if fence == 0 {
					t.Errorf("node %d: lock %s: zero fence", id, key)
				}
				counts[idx]++ // protected by key's distributed mutex
				if err := ls.Unlock(key, fence); err != nil {
					t.Errorf("node %d: unlock %s: %v", id, key, err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	if got := counts[0] + counts[1]; got != 12 {
		t.Errorf("total increments = %d, want 12", got)
	}
}

// TestReceiptFitsASmallDelta: the receipt of an unlent token is the
// session's ack, which waits RTO/4 for a frame to ride, and the sender's
// watchdog gives it 2δ plus the slack. With δ = 5 ms and no slack asked
// for, the default 50 ms RTO would have every lone ack arrive after the
// watchdog; lockspace.Start fits the RTO to the node's timeouts instead
// (SessionConfig.Fit). Acquires roam over eight nodes with 30 ms pauses,
// so every ack travels alone after its full delay — and no token is ever
// regenerated: every fence stays in epoch 0.
func TestReceiptFitsASmallDelta(t *testing.T) {
	reg := obs.NewRegistry()
	c := meteredCluster(t, 8, reg, WithFaultTolerance(5*time.Millisecond, 5*time.Millisecond, 0))
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for i := 0; i < 20; i++ {
		ls, err := c.Lockspace(i * 3 % 8)
		if err != nil {
			t.Fatal(err)
		}
		fence, err := ls.Lock(ctx, "roam")
		if err != nil {
			t.Fatalf("acquire %d: %v", i, err)
		}
		if epoch := fence >> 32; epoch != 0 {
			t.Fatalf("acquire %d at node %d was granted fence %#x: the token was regenerated %d times", i, i*3%8, fence, epoch)
		}
		if err := ls.Unlock("roam", fence); err != nil {
			t.Fatalf("release %d: %v", i, err)
		}
		time.Sleep(30 * time.Millisecond)
	}
	receipts, pure := scrapeSum(t, reg, "ocmx_session_receipts_total"), scrapeSum(t, reg, "ocmx_session_ack_frames_total")
	if receipts == 0 || pure == 0 {
		t.Errorf("%v receipts, %v pure acks: the run acknowledged no token through a lone ack", receipts, pure)
	}
}

// meteredCluster is NewCluster with every node's series in reg, so a test
// reads the session counters as a scrape of the ocmx_session_* series.
func meteredCluster(t *testing.T, n int, reg *obs.Registry, opts ...Option) *Cluster {
	t.Helper()
	mesh, err := transport.NewSessMesh(n, 4096)
	if err != nil {
		t.Fatal(err)
	}
	c := &Cluster{mesh: mesh}
	t.Cleanup(func() { c.Close() })
	for i := 0; i < n; i++ {
		cfg := config(i, bits.TrailingZeros(uint(n)), opts)
		cfg.Metrics = reg
		node, err := lockspace.Start(mesh.Endpoint(cfg.Node.Self), transport.SessionConfig{}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		c.nodes = append(c.nodes, node)
	}
	return c
}

// scrapeSum sums every labelled sample of the series name in reg's scrape.
func scrapeSum(t *testing.T, reg *obs.Registry, name string) (sum float64) {
	t.Helper()
	var b strings.Builder
	if err := reg.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(b.String(), "\n") {
		if !strings.HasPrefix(line, name+"{") {
			continue
		}
		v, err := strconv.ParseFloat(line[strings.LastIndexByte(line, ' ')+1:], 64)
		if err != nil {
			t.Fatalf("scrape line %q: %v", line, err)
		}
		sum += v
	}
	return sum
}
