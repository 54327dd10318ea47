//ocmxvet:deterministic

// Package a seeds determinism violations: wall-clock reads, the global
// math/rand source and scheduler observation, plus the annotation
// cases — an effective allowance, a reason-less one (which must fail)
// and one naming an analyzer that does not exist.
package a

import (
	"math/rand"
	"runtime"
	"time"
)

func clock() time.Time {
	return time.Now() // want "time.Now reads the wall clock"
}

func wait(d time.Duration) {
	time.Sleep(d) // want "time.Sleep reads the wall clock"
}

func roll() int {
	return rand.Intn(6) // want "rand.Intn draws from the process-global source"
}

func seeded(seed int64) int {
	rng := rand.New(rand.NewSource(seed))
	return rng.Intn(6) // explicit seeded source: legal
}

func plumbing(rng *rand.Rand) int {
	return rng.Intn(6) // *rand.Rand type references are legal plumbing
}

func fleet() int {
	return runtime.NumGoroutine() // want "runtime.NumGoroutine observes scheduler state"
}

// A leftover allowance is an unknown directive, and silences nothing.
func allowance() time.Time {
	return time.Now() //ocmxvet:allow determinism -- fixture: no annotation silences a finding // want "unknown ocmxvet directive" "time.Now reads the wall clock"
}
