// Package metrics provides three small tools. Summary holds the exact
// statistics of the experiment harness (internal/harness): streaming
// mean/max and exact quantiles for the modest sample sizes of the paper's
// evaluation — per-search tested-node counts (E4), per-source message
// averages (E6), request waiting times (E10) — and Merge, which folds
// E13's per-slice summaries into one cell exactly. FenceGate is the
// acceptance rule of a fence-checking resource, behind the props ledger
// (internal/props) and opencubemx.FencedResource. Holds is the one
// mutual-exclusion accountant: sim.Network, lockspace.Space and
// props.LockProps enter every grant into it and exit every hold, and it
// alone decides whether an entry overlapped and whether fences tell the
// overlap apart.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"sync"
)

// Summary accumulates observations and reports count, mean, standard
// deviation, min, max and exact quantiles. It retains all samples (the
// paper's experiments record at most a few hundred thousand observations).
// It is safe for concurrent use; the zero value is ready to use.
type Summary struct {
	mu      sync.Mutex
	samples []float64
	sum     float64
	sumSq   float64
	sorted  bool
}

// Merge folds every sample of other into s — the deterministic way to
// combine per-cell or per-shard summaries computed on a worker pool:
// merge them in a fixed order after the sweep instead of sharing one
// summary across workers. other is left unchanged.
//
// Merging is sample-exact, which gives the sharded path (E13) the
// guarantees its zero-traffic shards need: an empty or zero-grant
// shard's summary contributes NOTHING — no phantom zero sample — so it
// cannot drag p50/p99 wait percentiles down or poison Min to 0. Merge
// order does not affect any reported statistic (quantiles sort, moments
// commute); nil and self merges are no-ops. TestSummaryMergeTable pins
// all of these.
func (s *Summary) Merge(other *Summary) {
	if other == nil || other == s {
		return
	}
	other.mu.Lock()
	samples := append([]float64(nil), other.samples...)
	other.mu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, v := range samples {
		s.samples = append(s.samples, v)
		s.sum += v
		s.sumSq += v * v
	}
	s.sorted = false
}

// Observe adds one sample.
func (s *Summary) Observe(v float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.samples = append(s.samples, v)
	s.sum += v
	s.sumSq += v * v
	s.sorted = false
}

// Count returns the number of samples.
func (s *Summary) Count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.samples)
}

// Mean returns the sample mean, or 0 with no samples.
func (s *Summary) Mean() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.samples) == 0 {
		return 0
	}
	return s.sum / float64(len(s.samples))
}

// Stddev returns the population standard deviation, or 0 with fewer than
// two samples.
func (s *Summary) Stddev() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := float64(len(s.samples))
	if n < 2 {
		return 0
	}
	mean := s.sum / n
	v := s.sumSq/n - mean*mean
	if v < 0 {
		v = 0
	}
	return math.Sqrt(v)
}

// Min returns the smallest sample, or 0 with no samples.
func (s *Summary) Min() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sortLocked()
	if len(s.samples) == 0 {
		return 0
	}
	return s.samples[0]
}

// Max returns the largest sample, or 0 with no samples.
func (s *Summary) Max() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sortLocked()
	if len(s.samples) == 0 {
		return 0
	}
	return s.samples[len(s.samples)-1]
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) by nearest-rank, or 0 with
// no samples.
func (s *Summary) Quantile(q float64) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sortLocked()
	n := len(s.samples)
	if n == 0 {
		return 0
	}
	idx := int(math.Ceil(q*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= n {
		idx = n - 1
	}
	return s.samples[idx]
}

func (s *Summary) sortLocked() {
	if !s.sorted {
		sort.Float64s(s.samples)
		s.sorted = true
	}
}

// String formats count/mean/max compactly.
func (s *Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.3f max=%.0f", s.Count(), s.Mean(), s.Max())
}
