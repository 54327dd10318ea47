package workload

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
	"time"
)

// referenceSort is the order the schedule sorts must reproduce, reached
// the way they reached it before they were radix sorts.
func referenceSort(reqs []KeyedRequest) {
	sort.Slice(reqs, func(i, j int) bool {
		if reqs[i].At != reqs[j].At {
			return reqs[i].At < reqs[j].At
		}
		if reqs[i].Node != reqs[j].Node {
			return reqs[i].Node < reqs[j].Node
		}
		return reqs[i].Key < reqs[j].Key
	})
}

// TestScheduleSortsMatchReference drives both sorts over the shapes that
// steer the radix plan — below and above radixMin, instants spread over
// one digit or six, clustered under a lone far outlier, collapsed onto a
// handful of values — against the comparison-sorted reference.
func TestScheduleSortsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	shapes := []struct {
		name string
		n    int
		at   func() time.Duration
	}{
		{"tiny", 40, func() time.Duration { return time.Duration(rng.Int63n(1000)) }},
		{"below-min", radixMin - 1, func() time.Duration { return time.Duration(rng.Int63n(1 << 40)) }},
		{"at-min", radixMin, func() time.Duration { return time.Duration(rng.Int63n(1 << 40)) }},
		{"one-digit", 5000, func() time.Duration { return time.Duration(rng.Int63n(1 << 9)) }},
		{"wide", 20000, func() time.Duration { return time.Duration(rng.Int63n(1 << 62)) }},
		{"clustered", 20000, func() time.Duration {
			if rng.Intn(20000) == 0 {
				return 1 << 60
			}
			return time.Duration(rng.Int63n(4096))
		}},
		{"few-values", 20000, func() time.Duration { return time.Duration(rng.Intn(3)) * time.Hour }},
	}
	for _, sh := range shapes {
		keyed := make([]KeyedRequest, sh.n)
		plain := make([]Request, sh.n)
		for i := range keyed {
			keyed[i] = KeyedRequest{Node: rng.Intn(16), Key: rng.Intn(64), At: sh.at()}
			plain[i] = Request{Node: keyed[i].Node, At: keyed[i].At}
		}
		want := slices.Clone(keyed)
		referenceSort(want)
		sortKeyedSchedule(keyed)
		if !slices.Equal(keyed, want) {
			t.Errorf("%s: sortKeyedSchedule departs from the reference order", sh.name)
		}
		// Request's order is KeyedRequest's with every Key equal.
		flat := make([]KeyedRequest, sh.n)
		for i, r := range plain {
			flat[i] = KeyedRequest{Node: r.Node, At: r.At}
		}
		referenceSort(flat)
		sortSchedule(plain)
		for i, r := range plain {
			if r.Node != flat[i].Node || r.At != flat[i].At {
				t.Errorf("%s: sortSchedule departs from the reference order at %d", sh.name, i)
				break
			}
		}
	}
}

// TestDegenerateHorizonSortsInComparisonTime: with horizon <= 0 every
// request lands on instant 0 and the (Node, Key) tie-break orders the
// whole schedule. At 100k requests that must cost a comparison sort
// (milliseconds), not a quadratic pass over one run of ties (minutes);
// the bound leaves three orders of magnitude for a slow host.
func TestDegenerateHorizonSortsInComparisonTime(t *testing.T) {
	const count = 100000
	start := time.Now()
	keyed := KeyedUniform(rand.New(rand.NewSource(5)), 256, 4096, count, 0)
	plain := Uniform(rand.New(rand.NewSource(5)), 256, count, -time.Second)
	if took := time.Since(start); took > 10*time.Second {
		t.Errorf("two all-ties schedules of %d requests took %v", count, took)
	}
	if len(keyed) != count || len(plain) != count {
		t.Fatalf("schedule lengths %d, %d, want %d", len(keyed), len(plain), count)
	}
	if !slices.IsSortedFunc(keyed, compareKeyedRequests) {
		t.Error("all-ties keyed schedule is not in (At, Node, Key) order")
	}
	if !slices.IsSortedFunc(plain, compareRequests) {
		t.Error("all-ties schedule is not in (At, Node) order")
	}
}

// TestChurnSortKeepsEmissionOrderAtEqualInstants: Churn emits a crash
// and its recovery as a pair, and pairs may meet at one instant — node
// 3 recovering at the moment node 5 crashes, or a zero-length outage.
// Ordering by At must not reorder what shares an instant.
func TestChurnSortKeepsEmissionOrderAtEqualInstants(t *testing.T) {
	evs := []ChurnEvent{
		{Node: 3, At: 10},
		{Node: 3, At: 30, Recover: true},
		{Node: 5, At: 30},
		{Node: 5, At: 30, Recover: true},
		{Node: 1, At: 30},
		{Node: 1, At: 20, Recover: true},
		{Node: 9, At: 10, Recover: true},
	}
	want := []ChurnEvent{
		{Node: 3, At: 10},
		{Node: 9, At: 10, Recover: true},
		{Node: 1, At: 20, Recover: true},
		{Node: 3, At: 30, Recover: true},
		{Node: 5, At: 30},
		{Node: 5, At: 30, Recover: true},
		{Node: 1, At: 30},
	}
	sortChurn(evs)
	if !slices.Equal(evs, want) {
		t.Errorf("sortChurn = %v, want %v", evs, want)
	}
}
