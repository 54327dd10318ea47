//go:build goexperiment.synctest

//go:debug asynctimerchan=0

// The bubble sweep runs the shipped chaos rig — clients, lockspace
// nodes, sessions, leases, kills and restarts — inside a
// testing/synctest bubble, where the clock advances only when every
// goroutine in the bubble is blocked. A run of seconds of virtual time
// then takes milliseconds, and a livelock (goroutines that never block)
// freezes virtual time instead of burning it, so a wall-clock deadline
// outside the bubble catches it.
//
// Run it with the experiment on (Go 1.24); -v prints each seed's longest
// reclaim wait and how many seeds had one longer than twice the lease:
//
//	GOEXPERIMENT=synctest go test -v -count=1 -cpu 1 -run Bubble ./internal/chaos
//
// The asynctimerchan directive above is needed because go.mod's go 1.22
// selects the pre-1.23 timer channels, under which synctest.Run panics.
package chaos

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"
	"testing/synctest"
	"time"

	"repro/internal/props"
)

// inBubble runs f in a fresh synctest bubble and returns when every
// goroutine f started has exited. It is the one call site of the
// experiment's entry point, which Go 1.25 renames to synctest.Test.
func inBubble(f func()) { synctest.Run(f) }

// bubbleDeadline is the wall-clock budget of one seed. A drained smoke
// episode takes well under a second in the bubble, under -race too.
const bubbleDeadline = 20 * time.Second

// TestBubbleSweep runs the smoke shape over seeds 1–100 at GOMAXPROCS=1,
// each from a goroutine outside its bubble. A seed fails on an always
// failure, on a cluster that does not quiesce, or on missing its
// wall-clock deadline, which in a bubble means a livelock. A missed
// deadline ends the sweep: the spinning bubble cannot be stopped, and it
// would starve every later seed of the one processor. The sweep logs how
// many seeds had a client wait longer than twice the lease for a lapsed
// lock, which no assertion bounds yet.
func TestBubbleSweep(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	lease := smokeConfig(0).LeaseTTL
	late, longest, longestSeed := 0, time.Duration(0), int64(0)
	for seed := int64(1); seed <= 100; seed++ {
		hung := false
		var reclaim time.Duration
		t.Run(fmt.Sprintf("smoke/seed%d", seed), func(t *testing.T) { reclaim = bubbleSeed(t, seed, &hung) })
		if hung {
			return
		}
		if reclaim > 2*lease {
			late++
		}
		if reclaim > longest {
			longest, longestSeed = reclaim, seed
		}
	}
	t.Logf("%d of 100 seeds took more than twice the %v lease to reclaim; the longest, %v, at seed %d",
		late, lease, longest, longestSeed)
}

// bubbleSeed runs one smoke seed in a bubble and judges it, setting
// *hung when the bubble misses its deadline. It returns the seed's longest
// reclaim wait (Totals.MaxReclaim: from the later of the lapse and the
// reclaiming client's Lock call to its grant).
func bubbleSeed(t *testing.T, seed int64, hung *bool) time.Duration {
	replay := fmt.Sprintf("GOEXPERIMENT=synctest go test -count=1 -cpu 1 -run 'TestBubbleSweep/smoke/seed%d$' ./internal/chaos", seed)
	cfg := smokeConfig(seed)
	var autopsy bytes.Buffer
	cfg.Autopsy = &autopsy
	type outcome struct {
		res *Result
		err error
	}
	done := make(chan outcome, 1)
	go inBubble(func() {
		res, err := Run(cfg)
		done <- outcome{res, err}
	})
	var out outcome
	select {
	case out = <-done:
	case <-time.After(bubbleDeadline):
		*hung = true
		t.Fatalf("smoke seed %d: no result after %v of wall clock (livelock); replay: %s", seed, bubbleDeadline, replay)
	}
	if out.err != nil {
		t.Fatalf("smoke seed %d: chaos run setup: %v; replay: %s", seed, out.err, replay)
	}
	res := out.res
	if res.Err != nil {
		t.Fatalf("smoke seed %d: property failure: %v; replay: %s\n%s\nautopsy:\n%s",
			seed, res.Err, replay, props.Format(res.Report), autopsy.String())
	}
	if !res.Drained {
		t.Fatalf("smoke seed %d: cluster failed to quiesce; replay: %s\n%s", seed, replay, props.Format(res.Report))
	}
	t.Logf("smoke seed %d: %d grants, %d reclaims (max %v, lapse to grant %v)", seed, res.Totals.Grants,
		res.Totals.Reclaims, res.Totals.MaxReclaim, res.Totals.MaxLapseToGrant)
	return res.Totals.MaxReclaim
}
