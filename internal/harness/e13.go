package harness

import (
	"fmt"
	"strconv"
	"time"

	"repro/internal/lockspace"
	"repro/internal/metrics"
	"repro/internal/workload"
)

// E13 — sliced lockspace scaling: millions of keys, deterministically
// merged. E9 proved that multiplexing K instances over ONE engine keeps
// msgs/CS flat; its ceiling is the single engine heap. E13 removes that
// ceiling: each cell's key space is statically cut into e13Slices slices
// by the FNV shard router (lockspace.InstanceShard), and each slice runs
// its own complete engine + lockspace + workload stream seeded by folding
// the cell seed with the slice id (workload.ShardSeed). Lockspace
// instances never exchange a message, so cutting BY KEY loses nothing.
//
// Slices are cells of the one worker pool: the sweep hands every
// (cell, slice) pair to forEach and merges each cell's slices in slice
// order, so the table is byte-identical for any -parallel value — which
// is why no worker count appears in it.
//
// The quantities to watch are E9's, at three orders of magnitude more
// keys: msgs/grant must stay at the E9/E7 constant (the per-CS cost
// depends on N and tree shape, never on key count), violations pin
// per-instance safety across a million keys, and the crash scenario —
// injected only into the hot slice, the one owning global key 0 — must
// regenerate and settle without stalling any slice. New here are the
// accept→grant waiting-time quantiles, pooled across slices through
// metrics.Summary.Merge (the empty-slice-safe merge is load-bearing:
// small-K cells leave most of the 64 slices empty).

// e13Slices is the fixed partition grid: every cell cuts its key space
// into this many slices, so no row depends on how many workers run them.
// 64 keeps a million-key cell's per-slice spaces small enough to hold a
// few in memory at once.
const e13Slices = 64

// E13Cell is one sweep coordinate.
type E13Cell struct {
	// P is the cube order (N = 2^P nodes per slice).
	P int
	// Keys is the global key count.
	Keys int
	// Skew is the key-popularity model, "uniform" or "zipf".
	Skew string
}

// e13Cells returns the sweep: smoke keeps N=64 and K ≤ 4096; full goes
// to the acceptance scale — K = 1M at N = 256 and N = 1024.
func e13Cells(full bool) []E13Cell {
	cells := []E13Cell{
		{P: 6, Keys: 256, Skew: "uniform"},
		{P: 6, Keys: 256, Skew: "zipf"},
		{P: 6, Keys: 4096, Skew: "zipf"},
	}
	if full {
		cells = append(cells,
			E13Cell{P: 8, Keys: 65536, Skew: "zipf"},
			E13Cell{P: 8, Keys: 1 << 20, Skew: "zipf"},
			E13Cell{P: 10, Keys: 65536, Skew: "zipf"},
			E13Cell{P: 10, Keys: 1 << 20, Skew: "zipf"},
		)
	}
	return cells
}

// E13Row is one merged (P, K, skew) measurement.
type E13Row struct {
	N          int
	Keys       int
	Skew       string
	Requests   int
	Grants     int64
	MsgsPerCS  float64       // delivered protocol messages per critical section
	Regens     int64         // token regenerations (hot-slice crash recovery)
	Stale      int64         // stale-epoch token sightings
	Violations int64         // per-instance overlaps — zero in every safe run
	States     int           // lazily instantiated (position, instance) machines
	WaitP50    time.Duration // median accept→grant wait (virtual time)
	WaitP99    time.Duration // tail accept→grant wait (virtual time)
	Stalled    int           // slices not quiescent inside the settle window
	msgs       int64         // delivered protocol messages, the gate's events
}

// strict is what -strict fails an E13 row on: a stalled slice or a
// violation.
func (r E13Row) strict() error {
	if r.Stalled != 0 || r.Violations != 0 {
		return fmt.Errorf("strict: e13 N=%d k=%d/%s stalled=%d violations=%d",
			r.N, r.Keys, r.Skew, r.Stalled, r.Violations)
	}
	return nil
}

// E13Sharded runs the sweep: every (cell, slice) pair is one item of the
// worker pool, and each cell's slices merge in slice order. On failure
// the lowest-numbered failing slice of the first failing cell reports,
// whatever order the workers finished in. Autopsies of stalled slices go
// to o.Autopsy after the sweep, in (cell, slice) order.
func E13Sharded(o Options, cells []E13Cell) ([]E13Row, error) {
	members := make([][][]int32, len(cells))
	for i, c := range cells {
		if c.Keys < 1 || c.Skew != "uniform" && c.Skew != "zipf" {
			return nil, fmt.Errorf("harness: e13 p=%d k=%d/%s: no such cell", c.P, c.Keys, c.Skew)
		}
		members[i] = e13Members(c.Keys)
	}
	slices, err := forEach(o.Workers, len(cells)*e13Slices, func(i int) (keyedRun, error) {
		c, t := cells[i/e13Slices], i%e13Slices
		s, err := runE13Slice(o, c, t, members[i/e13Slices][t])
		if err != nil {
			err = fmt.Errorf("harness: e13 p=%d k=%d/%s: slice %d: %w", c.P, c.Keys, c.Skew, t, err)
		}
		return s, err
	})
	if err != nil {
		return nil, err
	}
	rows := make([]E13Row, len(cells))
	for i, c := range cells {
		rows[i], _ = mergeE13(c, slices[i*e13Slices:(i+1)*e13Slices])
	}
	o.writeAutopsies(slices)
	return rows, nil
}

// e13Members is the static partition of keys 0..keys-1 over the slice
// grid: the slice of a key is a pure function of the key. Member lists
// are ascending by construction, so a slice's local rank r is its r-th
// smallest global key — and global key 0 is always local key 0 of its
// slice (the crash hook relies on this).
func e13Members(keys int) [][]int32 {
	members := make([][]int32, e13Slices)
	for g := 0; g < keys; g++ {
		t := lockspace.InstanceShard(uint64(g), e13Slices)
		members[t] = append(members[t], int32(g))
	}
	return members
}

// mergeE13 folds one cell's slices, in slice order, into its row and its
// pooled accept→grant waits.
func mergeE13(c E13Cell, slices []keyedRun) (E13Row, *metrics.Summary) {
	row := E13Row{N: 1 << c.P, Keys: c.Keys, Skew: c.Skew}
	waits := &metrics.Summary{}
	for _, s := range slices {
		row.Requests += s.requests
		row.Grants += s.grants
		row.msgs += s.msgs
		row.Regens += s.regens
		row.Stale += s.stale
		row.Violations += s.violations
		row.States += s.states
		row.Stalled += s.stalled
		waits.Merge(s.waits)
	}
	row.WaitP50 = time.Duration(waits.Quantile(0.5))
	row.WaitP99 = time.Duration(waits.Quantile(0.99))
	if row.Grants > 0 {
		row.MsgsPerCS = float64(row.msgs) / float64(row.Grants)
	}
	return row, waits
}

// runE13Slice is one slice's complete simulation, a pure function of
// (o.Seed, cell, slice, members): E9's keyed run over the slice's keys,
// seeded by folding the cell seed with the slice id, the crash confined to
// the hot slice (the one owning global key 0, always its local key 0).
// Requests per key drop from 6 to 3 above 64k keys — at K = 1M the sample
// is still three million requests.
func runE13Slice(o Options, c E13Cell, slice int, members []int32) (keyedRun, error) {
	seed := o.Seed + int64(c.Keys)*7919 + int64(c.P)*104729
	if c.Skew == "zipf" {
		seed++
	}
	perKey := 6
	if c.Keys > 65536 {
		perKey = 3
	}
	return runKeyed(o, keyedCell{p: c.P, keys: len(members), skew: c.Skew,
		seed: workload.ShardSeed(seed, slice), count: perKey * len(members),
		crash: slice == lockspace.InstanceShard(0, e13Slices), reason: fmt.Sprintf("shard-slice-%d-stalled", slice)})
}

// formatE13 renders the sliced sweep. Deliberately absent: the worker
// count — it cannot influence any cell, and keeping it out of stdout is
// what lets CI diff the table across -parallel settings.
func formatE13(rows []E13Row) string {
	header := []string{"N", "keys", "skew", "requests", "grants", "msgs/CS", "regens", "stale", "violations", "states", "wait p50", "wait p99", "outcome"}
	body := make([][]string, len(rows))
	for i, r := range rows {
		outcome := "completed"
		if r.Stalled != 0 {
			outcome = fmt.Sprintf("STALLED(%d)", r.Stalled)
		}
		body[i] = []string{
			strconv.Itoa(r.N),
			strconv.Itoa(r.Keys),
			r.Skew,
			strconv.Itoa(r.Requests),
			strconv.FormatInt(r.Grants, 10),
			fmt.Sprintf("%.2f", r.MsgsPerCS),
			strconv.FormatInt(r.Regens, 10),
			strconv.FormatInt(r.Stale, 10),
			strconv.FormatInt(r.Violations, 10),
			strconv.Itoa(r.States),
			r.WaitP50.String(),
			r.WaitP99.String(),
			outcome,
		}
	}
	return "E13 — sharded lockspace (64-slice grid over parallel engine shards, crash injected into the hot shard)\n" +
		table(header, body)
}
