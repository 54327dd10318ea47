package props

import (
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

func report(p *LockProps) map[string]Assertion {
	out := make(map[string]Assertion)
	for _, a := range p.Collector().Report() {
		out[a.ID] = a
	}
	return out
}

func TestLockPropsCleanRun(t *testing.T) {
	var c Collector
	p := NewLockProps(&c, 100*time.Millisecond)
	for i := uint64(1); i <= 3; i++ {
		p.OnRequest(0, "k")
		p.OnGrant(0, "k", i)
		p.OnRelease(0, "k", i)
	}
	p.Finish(true, map[uint64]int{1: 1, 2: 0})
	if err := c.Err(false); err != nil {
		t.Fatalf("clean run must pass: %v", err)
	}
	rep := report(p)
	for _, id := range []string{PropMutualExclusion, PropFenceMonotonic, PropLedgerAdmit} {
		if rep[id].Passes != 3 {
			t.Fatalf("%s passes = %d, want 3", id, rep[id].Passes)
		}
	}
	tot := p.Totals()
	if tot.Requests != 3 || tot.Grants != 3 || tot.Releases != 3 {
		t.Fatalf("totals wrong: %+v", tot)
	}
}

func TestLockPropsSameFenceOverlapFails(t *testing.T) {
	var c Collector
	p := NewLockProps(&c, 0)
	p.OnRequest(0, "k")
	p.OnGrant(0, "k", 5)
	// Second grant of the same fence while the first is still in CS:
	// the application-visible violation class.
	p.OnRequest(1, "k")
	p.OnGrant(1, "k", 5)
	rep := report(p)
	if !rep[PropMutualExclusion].Failed() {
		t.Fatalf("same-fence overlap must fail %s", PropMutualExclusion)
	}
	if !rep[PropFenceMonotonic].Failed() {
		t.Fatalf("non-increasing fence must fail %s", PropFenceMonotonic)
	}
}

func TestLockPropsDistinctFenceOverlapIsFencedOut(t *testing.T) {
	var c Collector
	p := NewLockProps(&c, 0)
	p.OnRequest(0, "k")
	p.OnGrant(0, "k", 1)
	// A second, higher-fence grant while holder 0 is neither released
	// nor lapsed: fenced-out class, counted but never an Always failure.
	p.OnRequest(1, "k")
	p.OnGrant(1, "k", 2)
	p.OnRelease(1, "k", 2)
	p.OnExpired(0, "k", 1)
	p.Finish(true, nil)
	if err := c.Err(false); err != nil {
		t.Fatalf("distinct-fence overlap must not fail: %v", err)
	}
	if tot := p.Totals(); tot.FencedOut != 1 {
		t.Fatalf("FencedOut = %d, want 1", tot.FencedOut)
	}
	rep := report(p)
	if rep[PropFencedOutOverlap].Unreached() {
		t.Fatalf("%s must be reached", PropFencedOutOverlap)
	}
	// The expired holder probed the ledger with its stale fence and was
	// refused: fencing observably protected the resource.
	if rep[PropStaleFenceRejected].Unreached() {
		t.Fatalf("%s must be reached", PropStaleFenceRejected)
	}
	if rep[PropLeaseExpiredSurfaced].Unreached() {
		t.Fatalf("%s must be reached", PropLeaseExpiredSurfaced)
	}
}

// TestLockPropsStaleTokenGrantIsFencedOut covers §5's duplicate-token
// residue: a superseded epoch's token grants a hold whose fence the
// ledger refuses. That is the fenced-out class — counted and marked
// reached, never an Always failure — as long as the refused fence is
// strictly stale.
func TestLockPropsStaleTokenGrantIsFencedOut(t *testing.T) {
	var c Collector
	p := NewLockProps(&c, 0)
	p.OnRequest(0, "k")
	p.OnGrant(0, "k", 1<<32|1) // regenerated token, epoch 1
	p.OnRelease(0, "k", 1<<32|1)
	// The old epoch-0 token surfaces and grants fence 41: refused.
	p.OnRequest(1, "k")
	p.OnGrant(1, "k", 41)
	p.OnRelease(1, "k", 41)
	p.Finish(true, nil)
	if err := c.Err(false); err != nil {
		t.Fatalf("stale-token grant must not fail the suite: %v", err)
	}
	if tot := p.Totals(); tot.FencedOut != 1 {
		t.Fatalf("FencedOut = %d, want 1", tot.FencedOut)
	}
	rep := report(p)
	if rep[PropStaleFenceRejected].Unreached() || rep[PropFencedOutOverlap].Unreached() {
		t.Fatal("refused grant must witness the fenced-out coverage")
	}
	// A refused fence ABOVE the high-water mark would be a real ledger
	// bug and must fail PropLedgerAdmit — simulate via a zero fence with
	// an empty ledger (never admitted, nothing above it).
	var c2 Collector
	p2 := NewLockProps(&c2, 0)
	p2.OnRequest(0, "q")
	p2.OnGrant(0, "q", 0)
	if rep2 := report(p2); !rep2[PropLedgerAdmit].Failed() {
		t.Fatalf("refusal of a non-stale fence must fail %s", PropLedgerAdmit)
	}
}

func TestLockPropsKillReclaimCoverageAndBound(t *testing.T) {
	var c Collector
	p := NewLockProps(&c, 0)
	p.OnRequest(2, "k")
	p.OnGrant(2, "k", 1)
	p.OnKilled(2)
	p.OnHoldLost(2, "k", 1)
	p.OnRequest(3, "k")
	p.OnGrant(3, "k", 1<<32|1) // next epoch: the regenerated token
	p.OnRelease(3, "k", 1<<32|1)
	p.Finish(true, nil)
	if err := c.Err(false); err != nil {
		t.Fatalf("kill+reclaim run must pass: %v", err)
	}
	rep := report(p)
	if rep[PropKillWhileHolding].Unreached() {
		t.Fatalf("%s must be reached", PropKillWhileHolding)
	}
	if rep[PropReclaimAfterKill].Unreached() {
		t.Fatalf("%s must be reached", PropReclaimAfterKill)
	}
	tot := p.Totals()
	if tot.Reclaims != 1 || tot.Lost != 1 {
		t.Fatalf("totals wrong: %+v", tot)
	}
	if tot.MaxReclaim > time.Hour {
		t.Fatalf("reclaim latency implausible: %v", tot.MaxReclaim)
	}
}

// TestLockPropsReclaimWaitStartsAtTheAsk times a reclaim from the later
// of the lapse and the reclaiming client's Lock call: a key nobody asked
// for while it was lapsed is no wait. The lapse-to-grant time stays
// beside it, and PropReclaimBounded still judges that one.
func TestLockPropsReclaimWaitStartsAtTheAsk(t *testing.T) {
	var c Collector
	p := NewLockProps(&c, 0)
	p.OnRequest(2, "k")
	p.OnGrant(2, "k", 1)
	p.OnKilled(2)
	p.OnHoldLost(2, "k", 1)
	time.Sleep(100 * time.Millisecond)
	p.OnRequest(3, "k")
	p.OnGrant(3, "k", 1<<32|1)
	p.OnRelease(3, "k", 1<<32|1)
	p.Finish(true, nil)
	if err := c.Err(false); err != nil {
		t.Fatal(err)
	}
	tot := p.Totals()
	if tot.Reclaims != 1 {
		t.Fatalf("reclaims = %d, want 1", tot.Reclaims)
	}
	if tot.MaxReclaim >= 50*time.Millisecond {
		t.Fatalf("MaxReclaim = %v, want well under the 100ms before anyone asked", tot.MaxReclaim)
	}
	if tot.MaxLapseToGrant < 100*time.Millisecond {
		t.Fatalf("MaxLapseToGrant = %v, want at least 100ms", tot.MaxLapseToGrant)
	}
	if rep := report(p); rep[PropReclaimBounded].Passes != 1 {
		t.Fatalf("%s passes = %d, want 1", PropReclaimBounded, rep[PropReclaimBounded].Passes)
	}
}

// TestLockPropsAsksPairFIFO pairs a node's requests of one key with
// their outcomes first in, first out: of two clients of node 1 asking
// 60ms apart, the grant ends the older ask and the abort the newer. A
// request of another key is no ask of this one.
func TestLockPropsAsksPairFIFO(t *testing.T) {
	var c Collector
	p := NewLockProps(&c, 0)
	p.OnRequest(0, "k")
	p.OnGrant(0, "k", 1)
	p.OnKilled(0)
	p.OnHoldLost(0, "k", 1)
	p.OnRequest(1, "k")
	time.Sleep(60 * time.Millisecond)
	p.OnRequest(1, "other")
	p.OnRequest(1, "k")
	p.OnGrant(1, "k", 1<<32|1)
	p.OnRelease(1, "k", 1<<32|1)
	p.OnAborted(1, "k")
	p.OnAborted(1, "other")
	p.Finish(true, nil)
	if err := c.Err(false); err != nil {
		t.Fatal(err)
	}
	if tot := p.Totals(); tot.MaxReclaim < 60*time.Millisecond {
		t.Fatalf("MaxReclaim = %v: the grant must end node 1's older ask, made at the lapse", tot.MaxReclaim)
	}
}

func TestLockPropsZombieLeaseReclaim(t *testing.T) {
	var c Collector
	ttl := 10 * time.Millisecond
	p := NewLockProps(&c, ttl)
	p.OnRequest(0, "k")
	p.OnGrant(0, "k", 1)
	p.OnZombie(0, "k", 1)
	time.Sleep(2 * ttl)
	p.OnRequest(1, "k")
	p.OnGrant(1, "k", 1<<32|1)
	p.OnRelease(1, "k", 1<<32|1)
	// The zombie finally wakes and its Unlock surfaces ErrLeaseExpired:
	// witnessed without re-counting the already-accounted outcome.
	p.OnLateExpiry(0, "k", 1)
	p.Finish(true, nil)
	if err := c.Err(false); err != nil {
		t.Fatalf("zombie reclaim run must pass: %v", err)
	}
	rep := report(p)
	if rep[PropReclaimAfterLease].Unreached() {
		t.Fatalf("%s must be reached", PropReclaimAfterLease)
	}
	if rep[PropLeaseExpiredSurfaced].Unreached() || rep[PropStaleFenceRejected].Unreached() {
		t.Fatal("late expiry must witness the lease-expiry coverage")
	}
}

func TestLockPropsPartitionHealWitness(t *testing.T) {
	var c Collector
	p := NewLockProps(&c, 0)
	p.OnHealed()
	p.OnRequest(0, "k")
	p.OnGrant(0, "k", 1)
	p.OnRelease(0, "k", 1)
	if rep := report(p); rep[PropPartitionHeal].Unreached() {
		t.Fatalf("grant after heal must witness %s", PropPartitionHeal)
	}
}

func TestLockPropsFinishCatchesImbalanceAndTokens(t *testing.T) {
	var c Collector
	p := NewLockProps(&c, 0)
	p.OnRequest(0, "k") // never granted, never aborted
	p.Finish(true, map[uint64]int{7: 2})
	rep := report(p)
	if !rep[PropNoStuck].Failed() {
		t.Fatalf("outstanding request must fail %s", PropNoStuck)
	}
	if !rep[PropAccounted].Failed() {
		t.Fatalf("imbalance must fail %s", PropAccounted)
	}
	if !rep[PropSingleToken].Failed() {
		t.Fatalf("2 tokens on one instance must fail %s", PropSingleToken)
	}
	if err := c.Err(false); err == nil || !strings.Contains(err.Error(), PropSingleToken) {
		t.Fatalf("Err must surface the census failure, got %v", err)
	}
}

// TestLockPropsConcurrentClients drives one suite from many goroutines,
// as the chaos rig's clients do: each owns a key, and one pair shares a
// key under distinct fences. Under -race it guards the suite's mutex
// around the accountant.
func TestLockPropsConcurrentClients(t *testing.T) {
	var c Collector
	p := NewLockProps(&c, 0)
	const clients, rounds = 8, 200
	var wg sync.WaitGroup
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			key := "k" + strconv.Itoa(g/2) // clients 2i and 2i+1 share a key
			for i := 0; i < rounds; i++ {
				fence := uint64(i*clients + g + 1)
				p.OnRequest(g, key)
				p.OnGrant(g, key, fence)
				p.OnRelease(g, key, fence)
			}
		}()
	}
	wg.Wait()
	p.Finish(true, nil)
	if rep := report(p); rep[PropMutualExclusion].Failed() || rep[PropAccounted].Failed() {
		t.Fatalf("distinct fences never overlap visibly:\n%s", Format(p.Collector().Report()))
	}
	if tot := p.Totals(); tot.Grants != clients*rounds || tot.Releases != clients*rounds {
		t.Fatalf("totals wrong: %+v", tot)
	}
}

// TestLockPropsPassingGrantBuildsNoDetails pins that a grant whose
// checks all pass allocates only its hold record: the details of an
// Always assertion are built when it fails.
func TestLockPropsPassingGrantBuildsNoDetails(t *testing.T) {
	var c Collector
	p := NewLockProps(&c, 0)
	fence := uint64(1)
	p.OnGrant(0, "k", fence)
	p.OnRelease(0, "k", fence)
	allocs := testing.AllocsPerRun(100, func() {
		fence++
		p.OnGrant(0, "k", fence)
		p.OnRelease(0, "k", fence)
	})
	if allocs > 1 {
		t.Fatalf("%v allocs per passing grant and release, want at most 1", allocs)
	}
	if err := c.Err(false); err != nil {
		t.Fatal(err)
	}
}

// TestLockPropsLateExpiryAllocsNothing pins the zombie's late Unlock, one
// of the chaos run's most frequent events, at zero allocations: a known
// key, a stale fence the ledger refuses, and two Reachable witnesses that
// carry no details.
func TestLockPropsLateExpiryAllocsNothing(t *testing.T) {
	var c Collector
	p := NewLockProps(&c, time.Second)
	p.OnRequest(0, "k")
	p.OnGrant(0, "k", 1<<32|1)
	p.OnZombie(0, "k", 1<<32|1)
	p.OnRequest(1, "k")
	p.OnGrant(1, "k", 2<<32|1)
	p.OnRelease(1, "k", 2<<32|1)
	allocs := testing.AllocsPerRun(100, func() {
		p.OnLateExpiry(0, "k", 1<<32|1)
	})
	if allocs != 0 {
		t.Fatalf("%v allocs per late expiry, want 0", allocs)
	}
	if rep := report(p); rep[PropStaleFenceRejected].Passes == 0 {
		t.Fatalf("the stale fence must be refused and witnessed by %s", PropStaleFenceRejected)
	}
}

func TestLockPropsStuck(t *testing.T) {
	var c Collector
	p := NewLockProps(&c, 0)
	p.OnRequest(0, "k")
	p.OnStuck(0, "k", time.Minute)
	p.Finish(true, nil)
	rep := report(p)
	if !rep[PropNoStuck].Failed() {
		t.Fatalf("OnStuck must fail %s", PropNoStuck)
	}
	if rep[PropAccounted].Failed() {
		t.Fatalf("stuck request must still be accounted (gave up): %+v", rep[PropAccounted])
	}
}
