package workload

import (
	"cmp"
	"math/bits"
	"slices"
	"time"
)

// The schedule sorts. A generator draws every record first and orders
// the schedule afterwards, so the order below — (At, Node) for Request,
// (At, Node, Key) for KeyedRequest, records equal in all of them being
// identical — fixes every byte a schedule holds; how it is reached is
// free. It is reached by an LSD radix pass over the leading bits of At,
// which leaves records that share those bits in short runs, and a typed
// comparison sort of each run under the full order. A schedule whose
// instants are spread out — every generator's, over a real horizon —
// costs O(n) moves; one whose instants collapse (a degenerate horizon
// puts everything at instant 0) is a single run and costs what the
// comparison sort costs, never a quadratic tie pass. The two sorts are
// written out per record type: a shared generic one would reach At
// through a call per record per pass.

const (
	// radixBits is the digit width: 2048 counters stay cache-resident
	// while a pass scatters.
	radixBits = 11
	// radixMin is the schedule length below which counting digits costs
	// more than comparing records.
	radixMin = 1 << (radixBits - 2)
)

// radixPlan returns the bit range [low, high) of At the radix passes
// cover: high is the bits in use, and low leaves enough leading bits —
// two more than the record count has, rounded up to whole digits — that
// evenly spread instants share them a few at a time. low == high means
// no pass; the whole schedule is then one run, which low = 64 expresses
// (every At shifted by it is 0).
func radixPlan(n int, maxAt time.Duration) (low, high int) {
	high = bits.Len64(uint64(maxAt))
	if n < radixMin || high == 0 {
		return 64, 64
	}
	digits := func(b int) int { return (b + radixBits - 1) / radixBits }
	passes := min(digits(bits.Len(uint(n))+2), digits(high))
	return max(high-passes*radixBits, 0), high
}

// digitOffsets turns a pass's digit counts into each digit's first
// output position.
func digitOffsets(count *[1 << radixBits]int32) {
	sum := int32(0)
	for d, c := range count {
		count[d] = sum
		sum += c
	}
}

func compareRequests(a, b Request) int {
	if c := cmp.Compare(a.At, b.At); c != 0 {
		return c
	}
	return cmp.Compare(a.Node, b.Node)
}

func sortSchedule(reqs []Request) {
	var maxAt time.Duration
	for i := range reqs {
		maxAt = max(maxAt, reqs[i].At)
	}
	low, high := radixPlan(len(reqs), maxAt)
	src, dst := reqs, []Request(nil)
	for shift := low; shift < high; shift += radixBits {
		if dst == nil {
			dst = make([]Request, len(reqs))
		}
		var count [1 << radixBits]int32
		for i := range src {
			count[uint64(src[i].At)>>shift&(1<<radixBits-1)]++
		}
		digitOffsets(&count)
		for i := range src {
			d := uint64(src[i].At) >> shift & (1<<radixBits - 1)
			dst[count[d]] = src[i]
			count[d]++
		}
		src, dst = dst, src
	}
	if len(src) > 0 && &src[0] != &reqs[0] {
		copy(reqs, src)
	}
	for i := 0; i < len(reqs); {
		j := i + 1
		for j < len(reqs) && uint64(reqs[j].At)>>low == uint64(reqs[i].At)>>low {
			j++
		}
		if j-i > 1 {
			slices.SortFunc(reqs[i:j], compareRequests)
		}
		i = j
	}
}

func compareKeyedRequests(a, b KeyedRequest) int {
	if c := cmp.Compare(a.At, b.At); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Node, b.Node); c != 0 {
		return c
	}
	return cmp.Compare(a.Key, b.Key)
}

func sortKeyedSchedule(reqs []KeyedRequest) {
	var maxAt time.Duration
	for i := range reqs {
		maxAt = max(maxAt, reqs[i].At)
	}
	low, high := radixPlan(len(reqs), maxAt)
	src, dst := reqs, []KeyedRequest(nil)
	for shift := low; shift < high; shift += radixBits {
		if dst == nil {
			dst = make([]KeyedRequest, len(reqs))
		}
		var count [1 << radixBits]int32
		for i := range src {
			count[uint64(src[i].At)>>shift&(1<<radixBits-1)]++
		}
		digitOffsets(&count)
		for i := range src {
			d := uint64(src[i].At) >> shift & (1<<radixBits - 1)
			dst[count[d]] = src[i]
			count[d]++
		}
		src, dst = dst, src
	}
	if len(src) > 0 && &src[0] != &reqs[0] {
		copy(reqs, src)
	}
	for i := 0; i < len(reqs); {
		j := i + 1
		for j < len(reqs) && uint64(reqs[j].At)>>low == uint64(reqs[i].At)>>low {
			j++
		}
		if j-i > 1 {
			slices.SortFunc(reqs[i:j], compareKeyedRequests)
		}
		i = j
	}
}
