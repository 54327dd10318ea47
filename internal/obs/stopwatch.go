package obs

import "time"

// Stopwatch measures wall-clock elapsed time for sweep-time notes and
// live-latency reporting. It lives in obs because the machine clock is
// nondeterministic by nature: the deterministic packages (core, sim,
// harness — see DESIGN.md §15) are forbidden by ocmxvet from reading it
// directly, and route their stderr-only wall measurements through this
// type instead, keeping the replay domain free of time.Now call sites. A
// Stopwatch never feeds a result table: everything it times is stderr
// reporting that the byte-identity CI gates exclude.
type Stopwatch struct {
	start time.Time
}

// StartStopwatch begins timing now.
func StartStopwatch() Stopwatch {
	return Stopwatch{start: time.Now()}
}

// Elapsed returns the wall time since the stopwatch started.
func (s Stopwatch) Elapsed() time.Duration {
	return time.Since(s.start)
}
