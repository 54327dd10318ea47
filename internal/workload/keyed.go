package workload

import (
	"fmt"
	"math"
	"math/rand"
	"time"
)

// Keyed schedules drive the lockspace experiments (E9): every request
// names the lock key it contends on, so one schedule exercises thousands
// of independent mutex instances over the same node population. Key
// selection is either uniform or Zipf-skewed — the canonical model for
// named-resource popularity, where a handful of hot keys absorb most of
// the traffic.

// KeyedRequest is one scheduled critical-section wish against a key.
type KeyedRequest struct {
	Node int
	Key  int
	At   time.Duration
}

// Zipf samples ranks 0..K-1 with probability proportional to
// 1/(rank+1)^S using Walker's alias method: construction is O(K), every
// sample costs exactly two rng draws (one Intn, one Float64) regardless
// of K or S, and both construction and sampling are fully deterministic
// — no map iteration, no rejection loops of data-dependent length — so
// seeded schedules replay bit-for-bit. S = 0 degrades to uniform;
// S around 1 is the classic web-object skew.
type Zipf struct {
	prob  []float64 // acceptance threshold per column
	alias []int     // overflow rank per column
}

// NewZipf builds the alias table for k ranks with exponent s.
func NewZipf(k int, s float64) (*Zipf, error) {
	if k < 1 {
		return nil, fmt.Errorf("workload: zipf needs k >= 1, got %d", k)
	}
	if s < 0 || math.IsNaN(s) || math.IsInf(s, 0) {
		return nil, fmt.Errorf("workload: zipf exponent %v out of range", s)
	}
	w := make([]float64, k)
	var total float64
	for r := range w {
		w[r] = math.Pow(float64(r+1), -s)
		total += w[r]
	}
	// Vose's stable alias construction: columns scaled to mean 1 are
	// split into "small" (underfull) and "large" (overfull); each small
	// column is topped up by one large donor. Worklists are filled in
	// ascending rank and consumed LIFO — a fixed, deterministic order.
	z := &Zipf{prob: make([]float64, k), alias: make([]int, k)}
	scaled := w // reuse: scaled[i] = w[i] * k / total
	small := make([]int, 0, k)
	large := make([]int, 0, k)
	for r := range scaled {
		scaled[r] = scaled[r] * float64(k) / total
		if scaled[r] < 1 {
			small = append(small, r)
		} else {
			large = append(large, r)
		}
	}
	for len(small) > 0 && len(large) > 0 {
		s := small[len(small)-1]
		small = small[:len(small)-1]
		l := large[len(large)-1]
		large = large[:len(large)-1]
		z.prob[s] = scaled[s]
		z.alias[s] = l
		scaled[l] -= 1 - scaled[s]
		if scaled[l] < 1 {
			small = append(small, l)
		} else {
			large = append(large, l)
		}
	}
	// Leftovers are exactly full modulo floating-point dust.
	for _, r := range large {
		z.prob[r], z.alias[r] = 1, r
	}
	for _, r := range small {
		z.prob[r], z.alias[r] = 1, r
	}
	return z, nil
}

// K returns the number of ranks.
func (z *Zipf) K() int { return len(z.prob) }

// Sample draws one rank; rank 0 is the hottest key.
func (z *Zipf) Sample(rng *rand.Rand) int {
	col := rng.Intn(len(z.prob))
	if rng.Float64() < z.prob[col] {
		return col
	}
	return z.alias[col]
}

// KeyedUniform spreads count requests over the horizon, each from a
// uniformly random node against a uniformly random key.
func KeyedUniform(rng *rand.Rand, n, keys, count int, horizon time.Duration) []KeyedRequest {
	out := make([]KeyedRequest, clampCount(count))
	for i := range out {
		out[i] = KeyedRequest{
			Node: rng.Intn(n),
			Key:  rng.Intn(keys),
			At:   sampleAt(rng, horizon),
		}
	}
	sortKeyedSchedule(out)
	return out
}

// KeyedZipf spreads count requests over the horizon, each from a
// uniformly random node against a Zipf(s)-distributed key — key 0 is the
// hottest. The rng draw order is fixed (node, key, instant per request),
// so schedules are deterministic per seed.
func KeyedZipf(rng *rand.Rand, n, keys, count int, horizon time.Duration, s float64) ([]KeyedRequest, error) {
	z, err := NewZipf(keys, s)
	if err != nil {
		return nil, err
	}
	out := make([]KeyedRequest, clampCount(count))
	for i := range out {
		out[i] = KeyedRequest{
			Node: rng.Intn(n),
			Key:  z.Sample(rng),
			At:   sampleAt(rng, horizon),
		}
	}
	sortKeyedSchedule(out)
	return out, nil
}
