package lockspace

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/core"
)

// Fencing, lease-expiry, and cancellation tests (PR 6): the client-visible
// robustness contract of the live keyed lock service.

// newLeasedSpace is newLiveSpace with a lease TTL and optional fault
// tolerance.
func newLeasedSpace(t *testing.T, p int, ttl time.Duration, ft bool) []*Lockspace {
	t.Helper()
	tmpl := Config{LeaseTTL: ttl}
	if ft {
		tmpl.Node = core.Config{
			FT: true, Delta: 10 * time.Millisecond,
			CSEstimate: 10 * time.Millisecond, SuspicionSlack: 5 * time.Millisecond,
		}
	}
	nodes, _ := newSessMeshSpace(t, p, tmpl)
	return nodes
}

// TestCancelledWaiterConsumesNoGrant is the PR-6 cancellation regression
// test, pinned by fence arithmetic: a waiter that cancels while queued
// must leave the FIFO without ever being granted. Before the fix a
// cancelled waiter stayed queued, took the next grant, and bounced it —
// visible here as the next client's fence arriving one step too high.
func TestCancelledWaiterConsumesNoGrant(t *testing.T) {
	nodes := newLiveSpace(t, 1)
	ctx := context.Background()
	f1, err := nodes[0].Lock(ctx, "k")
	if err != nil {
		t.Fatal(err)
	}
	cctx, cancel := context.WithCancel(ctx)
	got := make(chan error, 1)
	go func() { _, err := nodes[0].Lock(cctx, "k"); got <- err }()
	awaitQueued(t, nodes[0], "k", 2) // the waiter is behind the holder
	cancel()
	if err := <-got; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled lock = %v, want context.Canceled", err)
	}
	if err := nodes[0].Unlock("k", f1); err != nil {
		t.Fatal(err)
	}
	f2, err := nodes[0].Lock(ctx, "k")
	if err != nil {
		t.Fatal(err)
	}
	if f2 != f1+1 {
		t.Errorf("fence after cancelled waiter = %d, want %d (cancelled waiter must not consume a grant)", f2, f1+1)
	}
	if err := nodes[0].Unlock("k", f2); err != nil {
		t.Fatal(err)
	}
}

// TestLeaseExpiryReclaimsLock: a holder that goes silent past the TTL
// loses the lock through the ordinary exit protocol — the next waiter is
// served with a higher fence, and the zombie's Unlock/Keepalive report
// ErrLeaseExpired.
func TestLeaseExpiryReclaimsLock(t *testing.T) {
	nodes := newLeasedSpace(t, 1, 50*time.Millisecond, false)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	f1, err := nodes[0].Lock(ctx, "k")
	if err != nil {
		t.Fatal(err)
	}
	// The holder never unlocks and never heartbeats. A waiter on the
	// other node must get through once the lease lapses.
	start := time.Now()
	f2, err := nodes[1].Lock(ctx, "k")
	if err != nil {
		t.Fatalf("waiter after lapsed lease: %v", err)
	}
	if elapsed := time.Since(start); elapsed < 30*time.Millisecond {
		t.Errorf("lock reclaimed after %v, before the lease could lapse", elapsed)
	}
	if f2 <= f1 {
		t.Errorf("reclaiming grant fence = %d, want > %d", f2, f1)
	}
	// The expired holder's fence is dead.
	if err := nodes[0].Unlock("k", f1); !errors.Is(err, ErrLeaseExpired) {
		t.Errorf("expired holder's unlock = %v, want ErrLeaseExpired", err)
	}
	if err := nodes[0].Keepalive("k", f1); !errors.Is(err, ErrLeaseExpired) {
		t.Errorf("expired holder's keepalive = %v, want ErrLeaseExpired", err)
	}
	if err := nodes[1].Unlock("k", f2); err != nil {
		t.Fatal(err)
	}
}

// TestKeepaliveExtendsLease: heartbeats within the TTL keep the hold
// alive well past it.
func TestKeepaliveExtendsLease(t *testing.T) {
	nodes := newLeasedSpace(t, 1, 60*time.Millisecond, false)
	ctx := context.Background()
	fence, err := nodes[0].Lock(ctx, "k")
	if err != nil {
		t.Fatal(err)
	}
	// Hold for ~2.5 TTLs, renewing every third of a TTL.
	for i := 0; i < 8; i++ {
		time.Sleep(20 * time.Millisecond)
		if err := nodes[0].Keepalive("k", fence); err != nil {
			t.Fatalf("keepalive %d: %v", i, err)
		}
	}
	if err := nodes[0].Unlock("k", fence); err != nil {
		t.Errorf("unlock after renewed lease = %v, want success", err)
	}
}

// TestFencesMonotonicPerKey: successive grants of one key carry strictly
// increasing fences, across nodes.
func TestFencesMonotonicPerKey(t *testing.T) {
	nodes := newLiveSpace(t, 2)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var last uint64
	for i := 0; i < 8; i++ {
		ls := nodes[i%len(nodes)]
		fence, err := ls.Lock(ctx, "k")
		if err != nil {
			t.Fatalf("lock %d: %v", i, err)
		}
		if fence <= last {
			t.Errorf("grant %d fence = %d, want > %d", i, fence, last)
		}
		last = fence
		if err := ls.Unlock("k", fence); err != nil {
			t.Fatalf("unlock %d: %v", i, err)
		}
	}
}

// TestKillAndReclaimLive is the live crash-while-holding test the CI race
// job runs: the holder's node dies without unlocking, and a waiter on a
// surviving node must reclaim the lock through the Section 5 failure
// protocol — suspicion, search, token regeneration — with a fence that
// outranks the dead holder's.
func TestKillAndReclaimLive(t *testing.T) {
	nodes := newLeasedSpace(t, 1, 0, true)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	f1, err := nodes[1].Lock(ctx, "k")
	if err != nil {
		t.Fatal(err)
	}
	// Kill the holder: its loop stops mid-hold, its token dies with it.
	if err := nodes[1].Close(); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	f2, err := nodes[0].Lock(ctx, "k")
	if err != nil {
		t.Fatalf("reclaim after holder death: %v", err)
	}
	t.Logf("reclaimed %v after holder death", time.Since(start))
	if f2 <= f1 {
		t.Errorf("regenerated grant fence = %d, want > %d (new epoch outranks the dead token)", f2, f1)
	}
	if f2>>32 == f1>>32 {
		t.Errorf("reclaiming fence epoch = %d, want a regeneration (higher epoch than %d)", f2>>32, f1>>32)
	}
	if err := nodes[0].Unlock("k", f2); err != nil {
		t.Fatal(err)
	}
}
