// Package shard is the sharded simulation runtime: it partitions one
// logical lockspace experiment — millions of keys over one node
// population — across many independent engine shards and merges their
// metrics deterministically (experiment E13, ROADMAP item 1).
//
// # Architecture: a fixed slice grid, executed by S shards
//
// The key space is statically partitioned into a fixed grid of Slices
// slices by the FNV shard router (lockspace.InstanceShard), the same
// discipline production stores use for hash slots: the PARTITION is a
// pure function of the key, and only the ASSIGNMENT of partitions to
// executors varies with deployment size. Each non-empty slice gets its
// own complete simulation — its own typed-event engine, its own
// lockspace.Space over its keys (per-slice arenas and pools; nothing is
// shared across slices, so shards never contend), its own workload
// stream seeded by folding the run seed with the slice id
// (workload.ShardSeed), and its own metrics bucket. Lockspace instances
// are independent by construction (PR 4), so slicing BY KEY loses
// nothing: no protocol message ever crosses a slice boundary.
//
// Config.Shards shard workers execute the grid: shard w runs slices
// w, w+S, w+2S, … sequentially on its own goroutine. Because every
// slice's entire evolution is a pure function of (run config, slice
// id), and buckets merge in ascending slice order after all workers
// join, the merged Result — and every table derived from it — is
// byte-identical for ANY shard count and any harness worker count; the
// shard count only decides how many cores the wall-clock spreads over.
// This is the same determinism discipline the harness's worker pool
// keeps for sweep cells, applied inside a single experiment cell.
//
// Wall-clock imbalance (hash skew gives some shards more keys, the
// crash slice extra recovery work) is real and worth seeing, so Run
// reports per-shard events-per-second and goroutine counts to
// Config.Progress (stderr in the CLI) — never to the merged result.
package shard

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/lockspace"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/ocube"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Slices is the fixed partition grid: every run splits its key space
// into this many slices regardless of the shard count, so results never
// depend on deployment width. 64 keeps per-slice spaces small enough
// that a million-key run fits in memory slice by slice, while leaving
// headroom to scale to 64 cores.
const Slices = 64

// Config describes one sharded run. Every field that shapes the
// simulation participates in the per-slice determinism contract; only
// Shards and Progress are execution knobs with no effect on results.
type Config struct {
	// P is the cube order; every slice simulates the full 2^P node
	// population over its own key subset.
	P int
	// Keys is the global key count; keys are dense ids 0..Keys-1 routed
	// to slices by lockspace.InstanceShard.
	Keys int
	// Shards is the number of concurrent shard workers executing the
	// slice grid; <= 0 means one. Clamped to Slices.
	Shards int
	// Skew selects the per-slice key-popularity model: "uniform" or
	// "zipf" (each slice draws its own Zipf over its local keys, hottest
	// local key first — the slice-local analogue of E9's skew).
	Skew string
	// ZipfS is the Zipf exponent for Skew == "zipf".
	ZipfS float64
	// ReqsPerKey scales load: each slice schedules ReqsPerKey × (its key
	// count) requests over its horizon.
	ReqsPerKey int
	// Spacing is the mean per-request schedule spacing; a slice's
	// horizon is its request count × Spacing (the E9 saturation
	// discipline, applied per slice).
	Spacing time.Duration
	// Settle is the post-horizon quiescence window per slice; a slice
	// still churning past it counts as stalled.
	Settle time.Duration
	// Node is the per-instance node template (Self and P filled in per
	// position).
	Node core.Config
	// Delay models message transmission inside each slice (drawing from
	// the slice's own rng).
	Delay sim.DelayFn
	// CSTime is the simulated critical-section duration per grant.
	CSTime func(rng *rand.Rand) time.Duration
	// Seed is the run's root seed; slice i derives its private streams
	// via workload.ShardSeed(Seed, i).
	Seed int64
	// CrashHot, when set, injects the E9 crash scenario into the hot
	// shard: in the slice owning global key 0, the node granted that
	// key's second critical section fail-stops inside it and recovers
	// CrashRecover later.
	CrashHot bool
	// CrashRecover is the crashed node's downtime.
	CrashRecover time.Duration
	// Progress, when set, receives wall-clock shard reporting (goroutine
	// count, per-shard events/sec). Results never depend on it; the CLI
	// passes stderr so stdout stays byte-identical.
	Progress io.Writer
	// FlightDepth, when positive, attaches a token-lineage flight
	// recorder (internal/obs) of that per-instance depth to every
	// slice's Space, feeding the stall autopsies below. Like Progress it
	// is an execution knob: results are byte-identical with it on or
	// off.
	FlightDepth int
	// Autopsy, when set, receives a JSONL autopsy for every slice whose
	// settle window expires before quiescence — the stalled slice's busy
	// keys, their recent lineage (when FlightDepth is set) and per-node
	// protocol state. Writes from concurrent slices are serialized.
	Autopsy io.Writer
}

// Result is the deterministically merged outcome of one sharded run:
// plain sums over slices in ascending slice order, plus the wait
// summary merged through metrics.Summary.Merge in the same order.
type Result struct {
	// Requests counts accepted request arrivals across all slices.
	Requests int
	// Grants counts critical sections served.
	Grants int64
	// Msgs counts delivered protocol messages.
	Msgs int64
	// Regens counts token regenerations (crash recovery at work).
	Regens int64
	// Stale counts stale-epoch token sightings.
	Stale int64
	// Violations counts per-instance mutual-exclusion overlaps — zero in
	// every safe run.
	Violations int64
	// States counts lazily instantiated (position, instance) machines.
	States int
	// Stalled counts slices whose settle window expired before
	// quiescence — a DESIGN.md §7 regression signature, hard-gated at 0.
	Stalled int
	// Waits pools accept→grant waiting times across slices (engine
	// virtual-time nanoseconds).
	Waits *metrics.Summary
	// Events counts engine events dispatched across all slices (timers
	// and local requests included, unlike Msgs).
	Events uint64
	// PerShard reports each shard worker's wall-clock execution — NOT
	// deterministic, for Progress-style reporting only.
	PerShard []ShardStat
}

// ShardStat is one shard worker's execution report.
type ShardStat struct {
	// Shard is the worker index.
	Shard int
	// Slices is how many non-empty slices the worker ran.
	Slices int
	// Keys is how many keys its slices held.
	Keys int
	// Events is the engine work it dispatched.
	Events uint64
	// Wall is the worker's busy wall-clock time.
	Wall time.Duration
}

// sliceResult is one slice's raw measurement, merged in slice order.
type sliceResult struct {
	requests   int
	grants     int64
	msgs       int64
	regens     int64
	stale      int64
	violations int64
	states     int
	stalled    int
	events     uint64
	waits      *metrics.Summary
	wall       time.Duration
	err        error
}

// Run executes the sharded run and merges the slices. The error, like
// the Result, is deterministic: on failure the lowest-numbered failing
// slice reports, whatever order the workers finished in.
func Run(cfg Config) (Result, error) {
	if cfg.Keys < 1 {
		return Result{}, fmt.Errorf("shard: Keys=%d out of range", cfg.Keys)
	}
	if cfg.Skew != "uniform" && cfg.Skew != "zipf" {
		return Result{}, fmt.Errorf("shard: unknown skew %q", cfg.Skew)
	}
	shards := cfg.Shards
	if shards < 1 {
		shards = 1
	}
	if shards > Slices {
		shards = Slices
	}

	// Static partition: the slice of a key is a pure function of the key,
	// never of the shard count. Member lists are ascending by
	// construction, so a slice's local rank r is its r-th smallest global
	// key — and global key 0, when present, is always local key 0 of its
	// slice (the crash hook relies on this).
	members := make([][]int32, Slices)
	for g := 0; g < cfg.Keys; g++ {
		t := lockspace.InstanceShard(uint64(g), Slices)
		members[t] = append(members[t], int32(g))
	}
	hotSlice := lockspace.InstanceShard(0, Slices)

	if cfg.Progress != nil {
		fmt.Fprintf(cfg.Progress, "shard: %d keys over %d slices, %d shard workers, goroutines=%d\n",
			cfg.Keys, Slices, shards, progressGoroutines())
	}

	results := make([]sliceResult, Slices)
	// Never execute more slices at once than there are cores: shard
	// workers are CPU-bound, and interleaving more working sets than the
	// cache hierarchy can hold is a pure loss (measured 1.9× slower at 8
	// workers on 1 core). The semaphore caps only *execution* — the
	// shard→slice assignment, the per-shard reporting and the merged
	// result are untouched, so `-shards 8` on a small machine degrades
	// gracefully instead of thrashing.
	sem := make(chan struct{}, max(1, min(shards, runtime.GOMAXPROCS(0))))
	var progressMu sync.Mutex // Progress may be any io.Writer; serialize worker reports
	if cfg.Autopsy != nil {
		// Stalled slices may dump concurrently from several workers.
		cfg.Autopsy = &lockedWriter{w: cfg.Autopsy}
	}
	var wg sync.WaitGroup
	for w := 0; w < shards; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			stat := ShardStat{Shard: w}
			for t := w; t < Slices; t += shards {
				if len(members[t]) == 0 {
					results[t] = sliceResult{waits: &metrics.Summary{}}
					continue
				}
				sem <- struct{}{}
				// Wall metering goes through the obs layer: the replay
				// domain never reads time.Now itself (DESIGN.md §15),
				// and .wall only ever reaches Progress/PerShard
				// reporting, never a determinism-gated table.
				sliceStart := obs.StartStopwatch()
				results[t] = runSlice(cfg, t, members[t], t == hotSlice)
				results[t].wall = sliceStart.Elapsed()
				<-sem
				stat.Slices++
				stat.Keys += len(members[t])
				stat.Events += results[t].events
				stat.Wall += results[t].wall
			}
			if cfg.Progress != nil {
				evs := float64(0)
				if s := stat.Wall.Seconds(); s > 0 {
					evs = float64(stat.Events) / s
				}
				progressMu.Lock()
				fmt.Fprintf(cfg.Progress, "shard %d: %d slices, %d keys, %d events in %v busy (%.0f events/s), goroutines=%d\n",
					w, stat.Slices, stat.Keys, stat.Events, stat.Wall.Round(time.Millisecond), evs, progressGoroutines())
				progressMu.Unlock()
			}
		}(w)
	}
	wg.Wait()

	out := Result{Waits: &metrics.Summary{}}
	for t := 0; t < Slices; t++ {
		r := &results[t]
		if r.err != nil {
			return Result{}, fmt.Errorf("shard: slice %d: %w", t, r.err)
		}
		out.Requests += r.requests
		out.Grants += r.grants
		out.Msgs += r.msgs
		out.Regens += r.regens
		out.Stale += r.stale
		out.Violations += r.violations
		out.States += r.states
		out.Stalled += r.stalled
		out.Events += r.events
		out.Waits.Merge(r.waits)
	}
	for w := 0; w < shards; w++ {
		stat := ShardStat{Shard: w}
		for t := w; t < Slices; t += shards {
			if len(members[t]) == 0 {
				continue
			}
			stat.Slices++
			stat.Keys += len(members[t])
			stat.Events += results[t].events
			stat.Wall += results[t].wall
		}
		out.PerShard = append(out.PerShard, stat)
	}
	return out, nil
}

// lockedWriter serializes autopsy writes from concurrent slice workers
// so two stalled slices' JSONL dumps never interleave mid-line.
type lockedWriter struct {
	mu sync.Mutex
	w  io.Writer
}

func (l *lockedWriter) Write(b []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.w.Write(b)
}

// runSlice is one slice's complete simulation: its own Space, workload
// stream and measurement, a pure function of (cfg, slice, members).
func runSlice(cfg Config, slice int, members []int32, hot bool) sliceResult {
	res := sliceResult{waits: &metrics.Summary{}}
	n := 1 << cfg.P
	keys := len(members)
	sliceSeed := workload.ShardSeed(cfg.Seed, slice)
	rng := rand.New(rand.NewSource(sliceSeed))
	count := cfg.ReqsPerKey * keys
	horizon := time.Duration(count) * cfg.Spacing

	var reqs []workload.KeyedRequest
	var err error
	switch cfg.Skew {
	case "uniform":
		reqs = workload.KeyedUniform(rng, n, keys, count, horizon)
	case "zipf":
		reqs, err = workload.KeyedZipf(rng, n, keys, count, horizon, cfg.ZipfS)
		if err != nil {
			res.err = err
			return res
		}
	}

	rec := &trace.Recorder{}
	var fl *obs.Flight
	if cfg.FlightDepth > 0 {
		fl = obs.NewFlight(cfg.FlightDepth)
	}
	sp, err := lockspace.NewSpace(lockspace.SpaceConfig{
		P:         cfg.P,
		Instances: keys,
		Node:      cfg.Node,
		Seed:      sliceSeed,
		Delay:     cfg.Delay,
		CSTime:    cfg.CSTime,
		Recorder:  rec,
		Flight:    fl,
	})
	if err != nil {
		res.err = err
		return res
	}

	// Waiting time at the driver: accept→grant per (instance, node); a
	// node has at most one outstanding wish per instance.
	pending := make(map[int64]time.Duration)
	sp.OnRequest(func(inst int, x ocube.Pos) {
		res.requests++
		pending[int64(inst)*int64(n)+int64(x)] = sp.Network().Eng.Now()
	})
	hotGrants := 0
	sp.OnGrant(func(inst int, x ocube.Pos) {
		key := int64(inst)*int64(n) + int64(x)
		if at, ok := pending[key]; ok {
			res.waits.Observe(float64(sp.Network().Eng.Now() - at))
			delete(pending, key)
		}
		// The E9 crash scenario, scoped to the hot shard: the node serving
		// the globally hottest key's second grant fail-stops inside that
		// critical section and recovers much later, dragging every
		// instance it hosts in this slice through Section 5 recovery.
		if hot && cfg.CrashHot && inst == 0 {
			hotGrants++
			if hotGrants == 2 {
				sp.Network().Fail(x, 0)
				sp.Network().Recover(x, cfg.CrashRecover)
			}
		}
	})

	for _, r := range reqs {
		sp.Request(r.Key, ocube.Pos(r.Node), r.At)
	}
	if !sp.Run(horizon + cfg.Settle) {
		res.stalled = 1
		if cfg.Autopsy != nil {
			// Buffer the dump and write it in one call: concurrent stalled
			// slices then emit whole autopsies, not interleaved lines.
			var buf bytes.Buffer
			if sp.Autopsy(&buf, fmt.Sprintf("shard-slice-%d-stalled", slice)) == nil {
				_, _ = cfg.Autopsy.Write(buf.Bytes())
			}
		}
	}
	res.grants = sp.Grants()
	res.msgs = rec.Total()
	res.regens = sp.Regenerations()
	res.stale = sp.StaleTokens()
	res.violations = sp.Violations()
	res.states = sp.States()
	res.events = sp.Network().Eng.Steps()
	return res
}

// progressGoroutines reports the process goroutine count for the
// -progress stderr lines: live fleet health while a multi-hour E13
// sweep runs. It is the one sanctioned scheduler read in the replay
// domain — stdout tables never see it, which the obs zero-cost CI gate
// pins by cmp.
func progressGoroutines() int {
	return runtime.NumGoroutine() //ocmxvet:allow determinism -- live fleet health on the -progress stderr path only; never reaches a result table
}
