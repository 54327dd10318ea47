package workload

import (
	"encoding/binary"
	"hash/fnv"
	"math/rand"
	"testing"
	"time"
)

// The digests below were recorded at the commit before the schedule
// sorts became radix sorts (PR 16). A schedule is sorted after every rng
// draw is made, so a sort change that moves one record changes a digest
// here instead of surfacing as a moved experiment table.

// digest folds a schedule's fields, in order, into FNV-1a.
func digest(fields ...int64) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, f := range fields {
		binary.LittleEndian.PutUint64(buf[:], uint64(f))
		h.Write(buf[:])
	}
	return h.Sum64()
}

func digestRequests(reqs []Request) uint64 {
	fields := make([]int64, 0, 2*len(reqs))
	for _, r := range reqs {
		fields = append(fields, int64(r.Node), int64(r.At))
	}
	return digest(fields...)
}

func digestKeyed(reqs []KeyedRequest) uint64 {
	fields := make([]int64, 0, 3*len(reqs))
	for _, r := range reqs {
		fields = append(fields, int64(r.Node), int64(r.Key), int64(r.At))
	}
	return digest(fields...)
}

func digestChurn(evs []ChurnEvent) uint64 {
	fields := make([]int64, 0, 3*len(evs))
	for _, e := range evs {
		rec := int64(0)
		if e.Recover {
			rec = 1
		}
		fields = append(fields, int64(e.Node), int64(e.At), rec)
	}
	return digest(fields...)
}

func TestGeneratorBytesPinned(t *testing.T) {
	const n, count = 64, 5000
	horizon := 3 * time.Second
	gens := []struct {
		name string
		run  func(rng *rand.Rand) uint64
		want [2]uint64 // seeds 1 and 2
	}{
		{"Uniform", func(rng *rand.Rand) uint64 {
			return digestRequests(Uniform(rng, n, count, horizon))
		}, [2]uint64{0x36cf4287af622384, 0x4a2fe59651e77968}},
		{"UniformCoarse", func(rng *rand.Rand) uint64 {
			// 5000 requests over 41 instants: the tie-break orders most of it.
			return digestRequests(Uniform(rng, n, count, 40))
		}, [2]uint64{0x2cddfa5466961b19, 0x9cd3aa31b463177a}},
		{"Hotspot", func(rng *rand.Rand) uint64 {
			return digestRequests(Hotspot(rng, n, count, horizon, 4, 0.8))
		}, [2]uint64{0xb32942bc4fa284ad, 0x380e30952da791b4}},
		{"HotspotSet", func(rng *rand.Rand) uint64 {
			return digestRequests(HotspotSet(rng, n, count, horizon, []int{3, 17, 42}, 0.7))
		}, [2]uint64{0x5b81d2da1c8ec6d, 0xf86bca2e5d471f8c}},
		{"Poisson", func(rng *rand.Rand) uint64 {
			return digestRequests(Poisson(rng, n, time.Millisecond, horizon))
		}, [2]uint64{0x70f958034a0b5e76, 0xdee487944ebae4e0}},
		{"KeyedUniform", func(rng *rand.Rand) uint64 {
			return digestKeyed(KeyedUniform(rng, n, 512, count, horizon))
		}, [2]uint64{0x9d0e8a0a10a84980, 0xc354afd7ddc21cd4}},
		{"KeyedZipf", func(rng *rand.Rand) uint64 {
			reqs, err := KeyedZipf(rng, n, 512, count, horizon, 1.1)
			if err != nil {
				t.Fatal(err)
			}
			return digestKeyed(reqs)
		}, [2]uint64{0x40273fc164905500, 0x6427c63ee4872d85}},
		{"KeyedZipfCoarse", func(rng *rand.Rand) uint64 {
			reqs, err := KeyedZipf(rng, n, 512, count, 40, 1.1)
			if err != nil {
				t.Fatal(err)
			}
			return digestKeyed(reqs)
		}, [2]uint64{0xc5e64049ac81943c, 0x45adae4cf729db11}},
		{"Churn", func(rng *rand.Rand) uint64 {
			return digestChurn(Churn(rng, n, 2*time.Millisecond, 20*time.Millisecond, horizon))
		}, [2]uint64{0xd691ba26e6a0b15e, 0x588890a176682af8}},
	}
	for _, g := range gens {
		for i, seed := range []int64{1, 2} {
			if got := g.run(rand.New(rand.NewSource(seed))); got != g.want[i] {
				t.Errorf("%s seed %d: digest %#x, pinned %#x", g.name, seed, got, g.want[i])
			}
		}
	}
}

// TestAllTiesSchedulePinned: a crafted schedule whose every record shares
// one instant, in descending (Node, Key) order — the tie-break does all
// the work.
func TestAllTiesSchedulePinned(t *testing.T) {
	plain := make([]Request, 3000)
	for i := range plain {
		plain[i] = Request{Node: (len(plain) - i) % 97, At: 7}
	}
	sortSchedule(plain)
	if got, want := digestRequests(plain), uint64(0x65aa955be65d03be); got != want {
		t.Errorf("all-ties Request schedule: digest %#x, pinned %#x", got, want)
	}
	keyed := make([]KeyedRequest, 3000)
	for i := range keyed {
		keyed[i] = KeyedRequest{Node: (len(keyed) - i) % 13, Key: (len(keyed) - i) % 101, At: 7}
	}
	sortKeyedSchedule(keyed)
	if got, want := digestKeyed(keyed), uint64(0x8299d5f1b4404ea); got != want {
		t.Errorf("all-ties KeyedRequest schedule: digest %#x, pinned %#x", got, want)
	}
}
