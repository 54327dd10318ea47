package lockspace

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/ocube"
)

// Shutdown-path tests (the chaos-driver review fix): a Lock in flight
// when its node dies — Close, or the transport closing under the event
// loop — must return ErrClosed instead of leaking the caller's
// goroutine on a grant nobody will ever send. These extend
// TestCancelledWaiterConsumesNoGrant's scenario to the Close path.

// TestCloseUnblocksInflightLock closes the lockspace while a waiter is
// queued behind a holder: the waiter's Lock must return ErrClosed.
func TestCloseUnblocksInflightLock(t *testing.T) {
	nodes := newLiveSpace(t, 1)
	ctx := context.Background()
	f1, err := nodes[0].Lock(ctx, "k")
	if err != nil {
		t.Fatal(err)
	}
	_ = f1
	got := make(chan error, 1)
	go func() { _, err := nodes[0].Lock(ctx, "k"); got <- err }()
	awaitQueued(t, nodes[0], "k", 2) // the waiter is behind the holder
	if err := nodes[0].Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-got:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("in-flight Lock after Close = %v, want ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("in-flight Lock leaked: still blocked 5s after Close")
	}
	// Later calls fail fast too.
	if _, err := nodes[0].Lock(ctx, "k2"); !errors.Is(err, ErrClosed) {
		t.Fatalf("Lock on closed node = %v, want ErrClosed", err)
	}
	if err := nodes[0].Unlock("k", f1); !errors.Is(err, ErrClosed) {
		t.Fatalf("Unlock on closed node = %v, want ErrClosed", err)
	}
}

// TestTransportClosureUnblocksLock kills the node the harder way — the
// transport closes under the event loop (a killed node's session), so
// ls.stop never closes. Every blocked or later caller must still get
// ErrClosed.
func TestTransportClosureUnblocksLock(t *testing.T) {
	sessions, _ := newSessions(t, 2)
	nodes := make([]*Lockspace, 2)
	for i := range nodes {
		ls, err := New(Config{
			Node:      core.Config{Self: ocube.Pos(i), P: 1},
			Transport: sessions[i],
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ls.Close() })
		nodes[i] = ls
	}
	ctx := context.Background()
	if _, err := nodes[0].Lock(ctx, "k"); err != nil {
		t.Fatal(err)
	}
	got := make(chan error, 1)
	go func() { _, err := nodes[0].Lock(ctx, "k"); got <- err }()
	awaitQueued(t, nodes[0], "k", 2)
	sessions[0].Close() // the loop's RecvBatch closes; the loop exits without stop
	select {
	case err := <-got:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("in-flight Lock after transport closure = %v, want ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("in-flight Lock leaked: still blocked 5s after transport closure")
	}
	if _, err := nodes[0].Lock(ctx, "k2"); !errors.Is(err, ErrClosed) {
		t.Fatalf("Lock after transport closure = %v, want ErrClosed", err)
	}
	if _, err := nodes[0].Census(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Census after transport closure = %v, want ErrClosed", err)
	}
}

// TestCensusAtRest checks the census sees exactly one token per
// instance once traffic quiesces — the ≤1-live-token-at-rest invariant
// the chaos harness sums across nodes.
func TestCensusAtRest(t *testing.T) {
	nodes := newLiveSpace(t, 1)
	ctx := context.Background()
	f, err := nodes[1].Lock(ctx, "k")
	if err != nil {
		t.Fatal(err)
	}
	if err := nodes[1].Unlock("k", f); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond) // let the release traffic drain
	id := KeyInstance("k")
	tokens := 0
	for _, ls := range nodes {
		rows, err := ls.Census()
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rows {
			if r.Instance != id {
				continue
			}
			if r.TokenHere {
				tokens++
			}
			if r.Held || r.Busy {
				t.Fatalf("node %d not at rest: %+v", ls.Self(), r)
			}
		}
	}
	if tokens != 1 {
		t.Fatalf("tokens at rest = %d, want 1", tokens)
	}
}

// TestRejoinRestartReclaimsLock kills the node that owns both the hold
// and the token, restarts it with Rejoin+Stable, and checks the
// reincarnation reclaims the lock through Section 5 recovery — with a
// strictly higher fence — instead of fabricating a second token from
// NewNode's initial conditions.
func TestRejoinRestartReclaimsLock(t *testing.T) {
	// Node 0's session outlives its first life: this test restarts the
	// lockspace, not the wire under it.
	sessions, _ := newSessions(t, 2)
	stable0 := NewMemStable()
	mk := func(self ocube.Pos, rejoin bool, st StableStore) *Lockspace {
		ls, err := New(Config{
			Node: core.Config{
				Self: self, P: 1, FT: true,
				Delta: 10 * time.Millisecond, CSEstimate: 10 * time.Millisecond,
				SuspicionSlack: 5 * time.Millisecond,
			},
			Transport: sessions[self],
			Rejoin:    rejoin,
			Stable:    st,
		})
		if err != nil {
			t.Fatal(err)
		}
		return ls
	}
	n0 := mk(0, false, stable0)
	n1 := mk(1, false, nil)
	t.Cleanup(func() { n1.Close() })

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	f1, err := n0.Lock(ctx, "k")
	if err != nil {
		t.Fatal(err)
	}
	// Kill node 0 mid-hold: the token dies with it. Its stable storage
	// survives in stable0.
	if err := n0.Close(); err != nil {
		t.Fatal(err)
	}
	if _, ok := stable0.Load(KeyInstance("k")); !ok {
		t.Fatal("stable store recorded nothing for the touched instance")
	}

	n0b := mk(0, true, stable0)
	t.Cleanup(func() { n0b.Close() })
	f2, err := n0b.Lock(ctx, "k")
	if err != nil {
		t.Fatalf("restarted node could not reclaim: %v", err)
	}
	if f2 <= f1 {
		t.Fatalf("fence after restart = %d, want > %d (regeneration must outrank the dead hold)", f2, f1)
	}
	if err := n0b.Unlock("k", f2); err != nil {
		t.Fatal(err)
	}

	// At rest: exactly one token for the instance across both nodes.
	time.Sleep(100 * time.Millisecond)
	id := KeyInstance("k")
	tokens := 0
	for _, ls := range []*Lockspace{n0b, n1} {
		rows, err := ls.Census()
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rows {
			if r.Instance == id && r.TokenHere {
				tokens++
			}
		}
	}
	if tokens != 1 {
		t.Fatalf("tokens after rejoin = %d, want 1", tokens)
	}
}
