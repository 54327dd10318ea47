package lockspace

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
)

// newLiveSpace spins up a 2^p-node lockspace with failure handling off:
// the sessions under it are reliable.
func newLiveSpace(t *testing.T, p int) []*Lockspace {
	t.Helper()
	nodes, _ := newSessMeshSpace(t, p, Config{})
	return nodes
}

func TestKeyInstance(t *testing.T) {
	seen := map[uint64]string{}
	for _, key := range []string{"", "a", "b", "orders/123", "orders/124", "users:42"} {
		id := KeyInstance(key)
		if id == core.NoInstance {
			t.Errorf("KeyInstance(%q) = NoInstance", key)
		}
		if id != KeyInstance(key) {
			t.Errorf("KeyInstance(%q) not deterministic", key)
		}
		if prev, ok := seen[id]; ok {
			t.Errorf("KeyInstance collision: %q and %q", prev, key)
		}
		seen[id] = key
	}
}

func TestLockUnlockAcrossNodes(t *testing.T) {
	nodes := newLiveSpace(t, 2)
	ctx := context.Background()

	// Node 3 locks first (token starts at node 0, so this crosses the
	// wire), then node 1 must wait for the unlock.
	if _, err := nodes[3].Lock(ctx, "k"); err != nil {
		t.Fatal(err)
	}
	got := make(chan error, 1)
	go func() { _, err := nodes[1].Lock(ctx, "k"); got <- err }()
	select {
	case err := <-got:
		t.Fatalf("second lock acquired while held: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	if err := nodes[3].Unlock("k", 0); err != nil {
		t.Fatal(err)
	}
	if err := <-got; err != nil {
		t.Fatal(err)
	}
	if err := nodes[1].Unlock("k", 0); err != nil {
		t.Fatal(err)
	}
}

func TestDistinctKeysDoNotBlock(t *testing.T) {
	nodes := newLiveSpace(t, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := nodes[0].Lock(ctx, "alpha"); err != nil {
		t.Fatal(err)
	}
	// A different key must be grantable while alpha is held.
	if _, err := nodes[1].Lock(ctx, "beta"); err != nil {
		t.Fatalf("independent key blocked: %v", err)
	}
	if err := nodes[1].Unlock("beta", 0); err != nil {
		t.Fatal(err)
	}
	if err := nodes[0].Unlock("alpha", 0); err != nil {
		t.Fatal(err)
	}
}

func TestLocalWaiterQueue(t *testing.T) {
	nodes := newLiveSpace(t, 1)
	ctx := context.Background()
	if _, err := nodes[1].Lock(ctx, "k"); err != nil {
		t.Fatal(err)
	}
	// A second local client on the SAME node queues behind the holder
	// instead of failing with the state machine's ErrBusy.
	got := make(chan error, 1)
	go func() { _, err := nodes[1].Lock(ctx, "k"); got <- err }()
	select {
	case err := <-got:
		t.Fatalf("queued local waiter returned early: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	if err := nodes[1].Unlock("k", 0); err != nil {
		t.Fatal(err)
	}
	if err := <-got; err != nil {
		t.Fatal(err)
	}
	if err := nodes[1].Unlock("k", 0); err != nil {
		t.Fatal(err)
	}
}

func TestUnlockWithoutLock(t *testing.T) {
	nodes := newLiveSpace(t, 1)
	if err := nodes[0].Unlock("never-locked", 0); !errors.Is(err, ErrNotLocked) {
		t.Fatalf("unlock of unheld key = %v, want ErrNotLocked", err)
	}
}

func TestLockCancellation(t *testing.T) {
	nodes := newLiveSpace(t, 1)
	ctx := context.Background()
	if _, err := nodes[0].Lock(ctx, "k"); err != nil {
		t.Fatal(err)
	}
	cctx, cancel := context.WithCancel(ctx)
	got := make(chan error, 1)
	go func() { _, err := nodes[1].Lock(cctx, "k"); got <- err }()
	awaitQueued(t, nodes[1], "k", 1) // its request is in flight
	cancel()
	if err := <-got; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled lock = %v, want context.Canceled", err)
	}
	// The abandoned request's eventual grant is auto-released, so a
	// later client still gets through.
	if err := nodes[0].Unlock("k", 0); err != nil {
		t.Fatal(err)
	}
	lctx, lcancel := context.WithTimeout(ctx, 5*time.Second)
	defer lcancel()
	if _, err := nodes[1].Lock(lctx, "k"); err != nil {
		t.Fatalf("lock after abandoned grant: %v", err)
	}
	if err := nodes[1].Unlock("k", 0); err != nil {
		t.Fatal(err)
	}
}

func TestClosedLockspace(t *testing.T) {
	nodes := newLiveSpace(t, 1)
	if err := nodes[0].Close(); err != nil {
		t.Fatal(err)
	}
	if err := nodes[0].Close(); err != nil {
		t.Errorf("double close: %v", err)
	}
	if _, err := nodes[0].Lock(context.Background(), "k"); !errors.Is(err, ErrClosed) {
		t.Errorf("lock on closed = %v, want ErrClosed", err)
	}
	if err := nodes[0].Unlock("k", 0); !errors.Is(err, ErrClosed) {
		t.Errorf("unlock on closed = %v, want ErrClosed", err)
	}
}

// TestContendedMutualExclusionAcrossKeys is the live-path race test:
// many goroutine clients on every node contend over an overlapping key
// set through one shared lockspace, and a per-key occupancy counter
// proves per-key mutual exclusion. Run under -race (the CI race job
// does), this also guards the loop/client seams.
func TestContendedMutualExclusionAcrossKeys(t *testing.T) {
	const (
		p       = 2
		clients = 4 // per node
		iters   = 6
		keys    = 5
	)
	nodes := newLiveSpace(t, p)
	var occupancy [keys]atomic.Int32
	var grants atomic.Int64
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	var wg sync.WaitGroup
	errs := make(chan error, len(nodes)*clients)
	for _, ls := range nodes {
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(ls *Lockspace, c int) {
				defer wg.Done()
				for i := 0; i < iters; i++ {
					k := (c + i*3 + int(ls.Self())) % keys
					key := fmt.Sprintf("key-%d", k)
					if _, err := ls.Lock(ctx, key); err != nil {
						errs <- fmt.Errorf("node %v client %d: lock: %w", ls.Self(), c, err)
						return
					}
					if n := occupancy[k].Add(1); n != 1 {
						errs <- fmt.Errorf("key %d held by %d clients at once", k, n)
					}
					occupancy[k].Add(-1)
					grants.Add(1)
					if err := ls.Unlock(key, 0); err != nil {
						errs <- fmt.Errorf("node %v client %d: unlock: %w", ls.Self(), c, err)
						return
					}
				}
			}(ls, c)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	want := int64(len(nodes) * clients * iters)
	if got := grants.Load(); got != want {
		t.Errorf("grants = %d, want %d", got, want)
	}
	// Lazy instantiation: no node needs more state machines than keys.
	for _, ls := range nodes {
		ls.mu.Lock()
		states := ls.m.Books().States
		ls.mu.Unlock()
		if states > keys {
			t.Errorf("node %v instantiated %d states for %d keys", ls.Self(), states, keys)
		}
	}
}
