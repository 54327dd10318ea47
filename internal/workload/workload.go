// Package workload generates seeded request schedules for the experiment
// harness: who asks for the critical section, and when. Schedules are
// plain data so the same workload can drive the open-cube algorithm, the
// scheme instances and the classic baselines identically — the fairness
// requirement behind the comparison (E5) and adaptivity (E6) experiments,
// where Section 6 of the paper varies request frequency per node.
package workload

import (
	"cmp"
	"math/rand"
	"slices"
	"time"
)

// Request is one scheduled critical-section wish.
type Request struct {
	Node int
	At   time.Duration
}

// sampleAt draws a uniform instant in [0, horizon]. A degenerate
// (zero or negative) horizon schedules everything at instant 0 without
// consuming a random draw — rng.Int63n would panic on a negative bound,
// and only worked at exactly zero by accident of the +1.
func sampleAt(rng *rand.Rand, horizon time.Duration) time.Duration {
	if horizon <= 0 {
		return 0
	}
	return time.Duration(rng.Int63n(int64(horizon) + 1))
}

// clampCount normalizes a negative request count to zero so degenerate
// schedule parameters yield an empty schedule instead of a panic.
func clampCount(count int) int {
	if count < 0 {
		return 0
	}
	return count
}

// Uniform spreads count requests from uniformly random nodes over the
// horizon. Per-node collisions are possible; drivers reject a node's
// overlapping wishes, which models impatient re-requests.
func Uniform(rng *rand.Rand, n, count int, horizon time.Duration) []Request {
	out := make([]Request, clampCount(count))
	for i := range out {
		out[i] = Request{
			Node: rng.Intn(n),
			At:   sampleAt(rng, horizon),
		}
	}
	sortSchedule(out)
	return out
}

// Hotspot draws a fraction of requests from a small hot set of nodes and
// the rest uniformly — the skewed-load scenario where the open-cube's
// workload adaptivity (frequent requesters drift towards the root)
// should pay off. The hot set is nodes [0, hotNodes), hotNodes clamped to
// [1, n]: HotspotSet over that set.
func Hotspot(rng *rand.Rand, n, count int, horizon time.Duration, hotNodes int, hotFraction float64) []Request {
	var hot []int
	for i := range min(max(hotNodes, 1), n) {
		hot = append(hot, i)
	}
	return HotspotSet(rng, n, count, horizon, hot, hotFraction)
}

// HotspotSet draws a fraction of requests uniformly from an explicit hot
// node set and the rest uniformly from everyone — used by the adaptivity
// experiment with hot nodes placed adversarially for a static tree.
func HotspotSet(rng *rand.Rand, n, count int, horizon time.Duration, hot []int, hotFraction float64) []Request {
	out := make([]Request, clampCount(count))
	for i := range out {
		node := rng.Intn(n)
		if len(hot) > 0 && rng.Float64() < hotFraction {
			node = hot[rng.Intn(len(hot))]
		}
		out[i] = Request{
			Node: node,
			At:   sampleAt(rng, horizon),
		}
	}
	sortSchedule(out)
	return out
}

// Poisson generates open-loop arrivals with the given mean inter-arrival
// time until the horizon, each from a uniformly random node. A
// non-positive mean gap or horizon yields an empty schedule (a zero mean
// gap would otherwise never advance the clock and loop forever).
func Poisson(rng *rand.Rand, n int, meanGap, horizon time.Duration) []Request {
	if meanGap <= 0 || horizon <= 0 {
		return nil
	}
	var out []Request
	t := time.Duration(0)
	for {
		t += time.Duration(rng.ExpFloat64() * float64(meanGap))
		if t > horizon {
			break
		}
		out = append(out, Request{Node: rng.Intn(n), At: t})
	}
	return out
}

// RoundRobin has every node request exactly once, in positional order,
// spaced by gap — the sequential sweep used by the exact-average
// experiment. A non-positive n yields an empty schedule.
func RoundRobin(n int, gap time.Duration) []Request {
	if n <= 0 {
		return nil
	}
	out := make([]Request, n)
	for i := range out {
		out[i] = Request{Node: i, At: time.Duration(i) * gap}
	}
	return out
}

// ChurnEvent is one scheduled fail-stop crash or recovery. Events are
// emitted in nondecreasing At order; every crash is paired with a later
// recovery, so a schedule applied to completion leaves every node up.
type ChurnEvent struct {
	Node    int
	At      time.Duration
	Recover bool // false = the node fails at At, true = it recovers
}

// Churn generates continuous Poisson fail/recover churn: crash arrivals
// with the given mean inter-arrival gap over the horizon, each crashing a
// uniformly random node that then recovers after an exponentially
// distributed downtime (plus one gap's floor of meanDown/8 so a crash is
// never a no-op flicker). An arrival that lands on a node still down is
// skipped — its rng draws are still consumed, keeping schedules
// replayable — so concurrent failures of distinct nodes overlap freely
// but no node is double-crashed. Crashes arriving by the horizon may
// recover after it; drivers run the tail out. The draw order per arrival
// is fixed: gap, victim, then (if the victim is up) downtime.
// Degenerate parameters (non-positive n, gaps or horizon) yield an empty
// schedule.
func Churn(rng *rand.Rand, n int, meanFailGap, meanDown, horizon time.Duration) []ChurnEvent {
	if n <= 0 || meanFailGap <= 0 || meanDown <= 0 || horizon <= 0 {
		return nil
	}
	var out []ChurnEvent
	upAt := make([]time.Duration, n)
	t := time.Duration(0)
	for {
		t += time.Duration(rng.ExpFloat64() * float64(meanFailGap))
		if t > horizon {
			break
		}
		victim := rng.Intn(n)
		if upAt[victim] > t {
			continue
		}
		down := time.Duration(rng.ExpFloat64()*float64(meanDown)) + meanDown/8
		out = append(out, ChurnEvent{Node: victim, At: t})
		out = append(out, ChurnEvent{Node: victim, At: t + down, Recover: true})
		upAt[victim] = t + down
	}
	sortChurn(out)
	return out
}

// sortChurn orders events by At alone and stably: a crash and a recovery
// at one instant keep their emission order.
func sortChurn(evs []ChurnEvent) {
	slices.SortStableFunc(evs, func(a, b ChurnEvent) int { return cmp.Compare(a.At, b.At) })
}
