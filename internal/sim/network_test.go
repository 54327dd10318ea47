package sim

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/ocube"
)

func TestFailRecoverIdempotent(t *testing.T) {
	w, err := New(ftConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	w.Fail(1, 0)
	w.Fail(1, 0)    // double fail: no-op
	w.Recover(2, 0) // recover a node that never failed: no-op
	w.Eng.RunWhile(always, time.Second)
	if !w.Down(1) || w.Down(2) {
		t.Error("down flags wrong after idempotent ops")
	}
	w.Recover(1, 0)
	w.Recover(1, 0)
	if !w.RunUntilQuiescent(time.Minute) {
		t.Fatal("no quiescence")
	}
	if w.Down(1) {
		t.Error("node 1 still down after recovery")
	}
}

func TestRequestOnDownNodeIgnored(t *testing.T) {
	w, err := New(ftConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	w.Fail(3, 0)
	w.RequestCS(3, time.Millisecond)
	if !w.RunUntilQuiescent(time.Minute) {
		t.Fatal("no quiescence")
	}
	if w.Grants() != 0 {
		t.Errorf("grants = %d from a dead node", w.Grants())
	}
}

func TestFailureDuringCSReleasesAccounting(t *testing.T) {
	// A node that dies inside its critical section must not leave the
	// in-CS counter stuck (the release event is skipped for down nodes).
	cfg := ftConfig(2)
	cfg.CSTime = func(*rand.Rand) time.Duration { return 10 * time.Millisecond }
	w, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w.RequestCS(0, 0) // root grants itself immediately
	w.Eng.RunWhile(always, 0)
	if !w.Node(0).InCS() {
		t.Fatal("root not in CS")
	}
	w.Fail(0, 0)
	w.Eng.RunWhile(always, time.Millisecond)
	// Another node must still be able to proceed after regeneration.
	w.RequestCS(3, time.Millisecond)
	if !w.RunUntilQuiescent(10 * time.Minute) {
		t.Fatal("no quiescence after CS-holder death")
	}
	if w.Violations() != 0 {
		t.Errorf("violations = %d", w.Violations())
	}
	if w.Grants() < 2 {
		t.Errorf("grants = %d, want the root's plus node 3's", w.Grants())
	}
}

func TestLiveTokensCountsInFlight(t *testing.T) {
	w, err := New(Config{P: 1, Delay: FixedDelay(time.Millisecond)})
	if err != nil {
		t.Fatal(err)
	}
	w.RequestCS(1, 0)
	// Step until the token is in flight: the request arrives at 1ms, the
	// token is sent then and lands at 2ms.
	w.Eng.RunUntil(1500 * time.Microsecond)
	if w.LiveTokens() != 1 {
		t.Errorf("live tokens mid-flight = %d, want 1", w.LiveTokens())
	}
	if !w.RunUntilQuiescent(time.Minute) {
		t.Fatal("no quiescence")
	}
	if w.LiveTokens() != 1 {
		t.Errorf("live tokens at rest = %d", w.LiveTokens())
	}
}

func TestSnapshotReflectsFathers(t *testing.T) {
	w, err := New(Config{P: 3})
	if err != nil {
		t.Fatal(err)
	}
	snap := w.Snapshot()
	for i := 0; i < w.N(); i++ {
		if snap.Father(ocube.Pos(i)) != ocube.InitialFather(ocube.Pos(i)) {
			t.Fatalf("pristine snapshot father(%d) wrong", i)
		}
	}
	if err := snap.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestOnEffectObservesGrants(t *testing.T) {
	var grants int
	w, err := New(Config{P: 1, OnEffect: func(_ ocube.Pos, e core.Effect) {
		if _, ok := e.(*core.Grant); ok {
			grants++
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	w.OnGrant(func(ocube.Pos) { grants += 10 })
	w.RequestCS(1, 0)
	if !w.RunUntilQuiescent(time.Minute) {
		t.Fatal("no quiescence")
	}
	if grants != 11 { // 1 via OnEffect + 10 via OnGrant
		t.Errorf("grant observations = %d, want 11", grants)
	}
}

// TestOutOfRangePositionRejectedAtTheCall: a position outside the
// network panics in the scheduling call that names it — not when the
// event fires, as an index error inside handle.
func TestOutOfRangePositionRejectedAtTheCall(t *testing.T) {
	w, err := New(ftConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	calls := map[string]func(){
		"RequestCS":         func() { w.RequestCS(4, time.Millisecond) },
		"RequestCS(None)":   func() { w.RequestCS(ocube.None, time.Millisecond) },
		"RequestInstanceCS": func() { w.RequestInstanceCS(7, 1, time.Millisecond) },
		"Fail":              func() { w.Fail(4, 0) },
		"Recover":           func() { w.Recover(-2, 0) },
	}
	for name, call := range calls {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s accepted an out-of-range position", name)
				}
			}()
			call()
		}()
	}
	if w.Eng.Pending() != 0 || w.Busy() {
		t.Errorf("rejected calls left %d events queued (busy=%v)", w.Eng.Pending(), w.Busy())
	}
}
