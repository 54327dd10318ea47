package harness

import (
	"bytes"
	"fmt"
	"time"

	"repro/internal/lockspace"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/ocube"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// keyedCell is one simulated lockspace run: an E9 cell, or one slice of an
// E13 cell. The adapters pick its seed, its request count and whether it
// carries the crash; everything else is the one recipe below.
type keyedCell struct {
	p, keys int    // cube order and instance count K
	skew    string // key popularity: "uniform" or "zipf"
	seed    int64  // seeds the schedule, the delays and the CS durations
	count   int    // requests drawn over the horizon
	crash   bool   // key 0's second grant crashes its holder
	reason  string // names the autopsy of a run that does not settle
}

// keyedRun is one keyed run's raw measurement, mergeable across slices.
type keyedRun struct {
	scheduled, requests, states, stalled    int // requests: accepted wishes
	grants, msgs, regens, stale, violations int64
	waits                                   *metrics.Summary // accept→grant
	// autopsy is the stalled run's JSONL dump, written after the sweep.
	autopsy []byte
}

// writeAutopsies writes the autopsies the runs carry to o.Autopsy, in run
// order: a sweep hands its runs in cell order (E13: cell, then slice) once
// every worker is done, so the bytes do not depend on -parallel.
func (o Options) writeAutopsies(runs []keyedRun) {
	if o.Autopsy == nil {
		return
	}
	for _, r := range runs {
		if len(r.autopsy) > 0 {
			// A diagnostic: failing to write it must not fail the sweep.
			_, _ = o.Autopsy.Write(r.autopsy)
		}
	}
}

// runKeyed simulates one keyed cell, a pure function of (o.Seed, c):
//
//   - The horizon keeps even the Zipf rank-0 key (and a K=1 single mutex)
//     below saturation: requests must arrive slower than one per critical
//     section plus round trip — about (3/2·p + CS)·δ, scaled to ~(4p+8)δ
//     spacing for headroom — or queueing delays exceed the suspicion bound
//     and healthy waits masquerade as failures (the DESIGN.md §7 storm
//     regime, which is not what E9 and E13 measure).
//   - The suspicion slack grows with the cube order for the same reason:
//     queueing behind a busy key scales with the (3/2·p)·δ round trip
//     (ftNodeConfig's reasoning, rescaled).
//   - With c.crash, the node serving key 0's second grant fail-stops inside
//     that critical section and recovers much later, dragging every
//     instance it hosts through Section 5 recovery at once. Key 0 is the
//     Zipf rank-0 key, the hottest by construction.
//   - The settle window after the horizon covers the crash outage plus a
//     few full search generations; a run still churning past it stalled.
//     Since the §7 fix this must never happen (the -strict gates).
//
// Waits are timed outside the protocol, accept→grant per (instance,
// node): a node has at most one outstanding wish per instance.
func runKeyed(o Options, c keyedCell) (keyedRun, error) {
	res := keyedRun{waits: &metrics.Summary{}}
	if c.keys == 0 {
		return res, nil
	}
	n := 1 << c.p
	horizon := time.Duration(c.count) * (time.Duration(4*c.p+8) * delta)
	rng := newRng(c.seed)
	var reqs []workload.KeyedRequest
	switch c.skew {
	case "uniform":
		reqs = workload.KeyedUniform(rng, n, c.keys, c.count, horizon)
	case "zipf":
		var err error
		if reqs, err = workload.KeyedZipf(rng, n, c.keys, c.count, horizon, e9ZipfS); err != nil {
			return res, err
		}
	default:
		return res, fmt.Errorf("unknown skew %q", c.skew)
	}
	res.scheduled = len(reqs)

	node := ftNodeConfig()
	node.SuspicionSlack += time.Duration(8*c.p) * delta
	rec := &trace.Recorder{}
	var fl *obs.Flight // one per space: cells run in parallel, lineage is never merged
	if o.Autopsy != nil {
		fl = obs.NewFlight(obs.DefaultFlightDepth)
	}
	sp, err := lockspace.NewSpace(lockspace.SpaceConfig{
		P:         c.p,
		Instances: c.keys,
		Node:      node,
		Seed:      c.seed,
		Delay:     sim.UniformDelay(delta/2, delta),
		CSTime:    csTime(delta),
		Recorder:  rec,
		Flight:    fl,
	})
	if err != nil {
		return res, err
	}
	w := sp.Network()
	pending := make(map[int64]time.Duration)
	sp.OnRequest(func(inst int, x ocube.Pos) {
		res.requests++
		pending[int64(inst)*int64(n)+int64(x)] = w.Eng.Now()
	})
	crash := crashAt(w, 2)
	sp.OnGrant(func(inst int, x ocube.Pos) {
		key := int64(inst)*int64(n) + int64(x)
		if at, ok := pending[key]; ok {
			res.waits.Observe(float64(w.Eng.Now() - at))
			delete(pending, key)
		}
		if c.crash && inst == 0 {
			crash(x)
		}
	})
	for _, r := range reqs {
		sp.Request(r.Key, ocube.Pos(r.Node), r.At)
	}
	if !sp.Run(horizon + 32000*delta) {
		res.stalled = 1
		if o.Autopsy != nil {
			var buf bytes.Buffer
			if sp.Autopsy(&buf, c.reason) == nil {
				res.autopsy = buf.Bytes()
			}
		}
	}
	res.grants = sp.Grants()
	res.msgs = rec.Total()
	res.regens = sp.Regenerations()
	res.stale = sp.StaleTokens()
	res.violations = sp.Violations()
	res.states = sp.States()
	return res, nil
}
