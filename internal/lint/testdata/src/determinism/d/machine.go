//ocmxvet:deterministic

// Package d is not in the deterministic set, and one of its two files
// opts in by pragma — the shape of internal/transport, whose machine.go
// is replayed by the simulator while session.go beside it drives the
// same machine from the wall clock. The pragma is per file: what this
// file reads of the host is reported, what driver.go reads is not.
package d

import (
	"math/rand"
	"time"
)

type machine struct {
	rng      *rand.Rand
	deadline time.Duration
}

func (m *machine) backoff(rto time.Duration) time.Duration {
	return rto + time.Duration(m.rng.Int63n(int64(rto))) // the caller's seeded source: legal
}

func (m *machine) stamp() time.Duration {
	return time.Duration(time.Now().UnixNano()) // want "time.Now reads the wall clock"
}

func (m *machine) jitter() int {
	return rand.Intn(6) // want "rand.Intn draws from the process-global source"
}
