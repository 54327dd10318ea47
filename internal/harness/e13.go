package harness

import (
	"fmt"
	"strconv"
	"time"

	"repro/internal/shard"
	"repro/internal/sim"
)

// E13 — sharded lockspace scaling: millions of keys across parallel
// engine shards, deterministically merged. E9 proved that multiplexing
// K instances over ONE engine keeps msgs/CS flat; its ceiling is the
// single engine heap. E13 removes that ceiling with internal/shard: the
// key space is statically cut into shard.Slices slices by the FNV shard
// router, each slice runs its own complete engine + lockspace + seeded
// workload stream, and per-slice metrics merge in slice order. The
// shard-worker count is an execution knob only — tables are
// byte-identical for any -shards and any -parallel value — which is why
// no shard count appears in the stdout table.
//
// The quantities to watch are E9's, at three orders of magnitude more
// keys: msgs/grant must stay at the E9/E7 constant (the per-CS cost
// depends on N and tree shape, never on key count), violations pin
// per-instance safety across a million keys, and the crash scenario —
// injected only into the hot shard, the slice owning global key 0 —
// must regenerate and settle without stalling any slice. New here are
// the accept→grant waiting-time quantiles, pooled across shards through
// metrics.Summary.Merge (the empty-shard-safe merge is load-bearing:
// small-K cells leave most of the 64 slices empty).

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
	Regens     int64         // token regenerations (hot-shard crash recovery)
	Stale      int64         // stale-epoch token sightings
	Violations int64         // per-instance overlaps — zero in every safe run
	States     int           // lazily instantiated (position, instance) machines
	WaitP50    time.Duration // median accept→grant wait (virtual time)
	WaitP99    time.Duration // tail accept→grant wait (virtual time)
	Stalled    int           // slices not quiescent inside the settle window
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

// runE13 is one sharded cell. The knobs are E9's, applied per slice: the
// same per-cell seed mix, the same (4p+8)δ saturation spacing, the same
// rescaled suspicion slack and settle window, the same
// crash-at-second-hot-grant scenario (here confined to the hot shard).
// Requests per key drop from 6 to 3 above 64k keys — at K = 1M the sample
// is still three million requests. Beside the row it returns the messages
// delivered.
func runE13(o Options, c E13Cell) (E13Row, int64, error) {
	cellSeed := o.Seed + int64(c.Keys)*7919 + int64(c.P)*104729
	if c.Skew == "zipf" {
		cellSeed++
	}
	reqsPerKey := 6
	if c.Keys > 65536 {
		reqsPerKey = 3
	}
	node := ftNodeConfig()
	node.SuspicionSlack += time.Duration(8*c.P) * delta
	res, err := shard.Run(shard.Config{
		FlightDepth:  o.FlightDepth,
		Autopsy:      o.Autopsy,
		Shards:       o.Shards,
		Progress:     o.Progress,
		P:            c.P,
		Keys:         c.Keys,
		Skew:         c.Skew,
		ZipfS:        e9ZipfS,
		ReqsPerKey:   reqsPerKey,
		Spacing:      time.Duration(4*c.P+8) * delta,
		Settle:       32000 * delta,
		Node:         node,
		Delay:        sim.UniformDelay(delta/2, delta),
		CSTime:       csTime(delta),
		Seed:         cellSeed,
		CrashHot:     true,
		CrashRecover: 400 * delta,
	})
	if err != nil {
		return E13Row{}, 0, fmt.Errorf("harness: e13 p=%d k=%d/%s: %w", c.P, c.Keys, c.Skew, err)
	}
	row := E13Row{
		N:          1 << c.P,
		Keys:       c.Keys,
		Skew:       c.Skew,
		Requests:   res.Requests,
		Grants:     res.Grants,
		Regens:     res.Regens,
		Stale:      res.Stale,
		Violations: res.Violations,
		States:     res.States,
		WaitP50:    time.Duration(res.Waits.Quantile(0.5)),
		WaitP99:    time.Duration(res.Waits.Quantile(0.99)),
		Stalled:    res.Stalled,
	}
	if res.Grants > 0 {
		row.MsgsPerCS = float64(res.Msgs) / float64(res.Grants)
	}
	return row, res.Msgs, nil
}

// E13Sharded runs the sweep. Cells are distributed over the harness
// worker pool like every other sweep; each cell's slices are additionally
// spread over its own o.Shards shard workers. Neither level of
// parallelism affects the rows.
func E13Sharded(o Options, cells []E13Cell) ([]E13Row, error) {
	return forEach(o.Workers, len(cells), func(i int) (E13Row, error) {
		row, _, err := runE13(o, cells[i])
		return row, err
	})
}

// formatE13 renders the sharded sweep. Deliberately absent: the shard
// count — it cannot influence any cell, and keeping it out of stdout is
// what lets CI diff the table across -shards settings.
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
