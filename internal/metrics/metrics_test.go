package metrics

import (
	"math"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestSummaryBasics(t *testing.T) {
	var s Summary
	if s.Count() != 0 || s.Mean() != 0 || s.Max() != 0 || s.Quantile(0) != 0 || s.Quantile(0.5) != 0 {
		t.Error("zero-value summary must report zeros")
	}
	for _, v := range []float64{3, 1, 4, 1, 5, 9, 2, 6} {
		s.Observe(v)
	}
	if s.Count() != 8 {
		t.Errorf("count = %d", s.Count())
	}
	if got := s.Mean(); math.Abs(got-31.0/8) > 1e-12 {
		t.Errorf("mean = %v", got)
	}
	if s.Quantile(0) != 1 || s.Max() != 9 {
		t.Errorf("min=%v max=%v", s.Quantile(0), s.Max())
	}
	if q := s.Quantile(0.5); q != 3 {
		t.Errorf("median = %v, want 3 (nearest rank)", q)
	}
	if q := s.Quantile(1.0); q != 9 {
		t.Errorf("p100 = %v", q)
	}
	if q := s.Quantile(0.0); q != 1 {
		t.Errorf("p0 = %v", q)
	}
	if s.String() == "" {
		t.Error("empty string")
	}
}

func TestSummaryObserveAfterQuantile(t *testing.T) {
	// Observations after a sorted read must keep statistics correct.
	var s Summary
	s.Observe(5)
	_ = s.Quantile(0.5)
	s.Observe(1)
	if s.Quantile(0) != 1 || s.Max() != 5 {
		t.Errorf("min=%v max=%v after re-observe", s.Quantile(0), s.Max())
	}
}

func TestSummaryConcurrent(t *testing.T) {
	var s Summary
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				s.Observe(float64(i))
				_ = s.Mean()
			}
		}()
	}
	wg.Wait()
	if s.Count() != 800 {
		t.Errorf("count = %d", s.Count())
	}
}

func TestSummaryPropertyMeanBounds(t *testing.T) {
	f := func(vals []float64) bool {
		var s Summary
		ok := false
		for _, v := range vals {
			// Keep magnitudes where the running sums cannot overflow.
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e100 {
				continue
			}
			s.Observe(v)
			ok = true
		}
		if !ok {
			return true
		}
		m := s.Mean()
		return m >= s.Quantile(0)-1e-9 && m <= s.Max()+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestSummaryMergeTable is the sharded-merge contract (E13): merging
// empty or zero-grant shard summaries must not poison percentiles, the
// lowest sample or Mean; merge order must not change any reported statistic; nil and
// self merges are no-ops.
func TestSummaryMergeTable(t *testing.T) {
	build := func(vals ...float64) *Summary {
		s := &Summary{}
		for _, v := range vals {
			s.Observe(v)
		}
		return s
	}
	type stats struct {
		count                    int
		mean, min, max, p50, p99 float64
	}
	read := func(s *Summary) stats {
		return stats{s.Count(), s.Mean(), s.Quantile(0), s.Max(), s.Quantile(0.5), s.Quantile(0.99)}
	}
	cases := []struct {
		name   string
		into   *Summary
		others []*Summary
		want   stats
	}{
		{"empty into empty", build(), []*Summary{build()},
			stats{0, 0, 0, 0, 0, 0}},
		{"empty shard into full", build(3, 1, 4), []*Summary{build()},
			stats{3, 8.0 / 3, 1, 4, 3, 4}},
		{"full into empty", build(), []*Summary{build(3, 1, 4)},
			stats{3, 8.0 / 3, 1, 4, 3, 4}},
		{"single-sample shard", build(10), []*Summary{build(2)},
			stats{2, 6, 2, 10, 2, 10}},
		{"nil shard", build(5), []*Summary{nil},
			stats{1, 5, 5, 5, 5, 5}},
		{"many shards, one empty, min preserved", build(7, 9), []*Summary{build(), build(2, 8), build(11)},
			stats{5, 37.0 / 5, 2, 11, 8, 11}},
	}
	for _, tc := range cases {
		for _, s := range tc.others {
			tc.into.Merge(s)
		}
		if got := read(tc.into); got != tc.want {
			t.Errorf("%s: got %+v want %+v", tc.name, got, tc.want)
		}
	}
}

// TestSummaryMergeOrderInvariant pins that shard merge order (and a
// pre-merge sorted read on a source) never changes quantiles, moments
// or extrema — only the deterministic slice-order merge discipline
// makes sharded tables reproducible, but the STATISTICS must not depend
// on it.
func TestSummaryMergeOrderInvariant(t *testing.T) {
	shards := [][]float64{{5, 3}, {}, {9, 1, 7}, {4}, {}}
	forward, backward := &Summary{}, &Summary{}
	for i := range shards {
		s := &Summary{}
		for _, v := range shards[i] {
			s.Observe(v)
		}
		forward.Merge(s)
	}
	for i := len(shards) - 1; i >= 0; i-- {
		s := &Summary{}
		for _, v := range shards[i] {
			s.Observe(v)
		}
		_ = s.Quantile(0.5) // a sorted read before merging must be harmless
		backward.Merge(s)
	}
	type key struct{ count, mean, min, max, p50, p99 float64 }
	k := func(s *Summary) key {
		return key{float64(s.Count()), s.Mean(), s.Quantile(0), s.Max(), s.Quantile(0.5), s.Quantile(0.99)}
	}
	if k(forward) != k(backward) {
		t.Errorf("merge order changed statistics: %+v vs %+v", k(forward), k(backward))
	}
}

// TestSummaryMergeSelf pins the self-merge guard: folding a summary
// into itself must not deadlock or double its samples.
func TestSummaryMergeSelf(t *testing.T) {
	s := &Summary{}
	s.Observe(1)
	s.Observe(2)
	done := make(chan struct{})
	go func() {
		s.Merge(s)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("self-merge deadlocked")
	}
	if s.Count() != 2 {
		t.Errorf("self-merge changed count to %d", s.Count())
	}
}
