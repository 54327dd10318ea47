package harness

import (
	"fmt"
	"strconv"
)

// E9 — lockspace scaling: resources as the unit of scale. Every earlier
// experiment grows the node count N of ONE mutex; a production lock
// service grows the number of named resources it serves. E9 multiplexes
// K independent open-cube instances over one engine (internal/lockspace)
// and sweeps K from 1 to 4096 under uniform and Zipf-skewed key
// popularity, with the E8 crash scenario injected into the hottest
// instance: the node granted that instance's second critical section
// fail-stops inside it and recovers much later, dragging every instance
// it hosts through Section 5 recovery at once.
//
// The quantities to watch: msgs/grant must stay put as K grows (per the
// paper, the per-CS cost depends on N and the tree shape, never on how
// many other locks share the runtime), states counts the lazily
// instantiated (position, instance) machines against the 2^P·K worst
// case, and violations pins per-instance mutual exclusion across the
// whole space.

// E9Skews lists the key-popularity models in report order.
var E9Skews = []string{"uniform", "zipf"}

// e9ZipfS is the Zipf exponent of the skewed cells (classic web-object
// popularity).
const e9ZipfS = 1.1

// E9Row is one (K, skew) measurement.
type E9Row struct {
	N          int
	Keys       int
	Skew       string
	Requests   int
	Grants     int64
	MsgsPerCS  float64 // delivered protocol messages per critical section
	Regens     int64   // token regenerations (crash recovery at work)
	Stale      int64   // stale-epoch token sightings
	Violations int64   // per-instance overlaps — zero in every safe run
	States     int     // lazily instantiated (position, instance) machines
	Completed  bool
}

// strict is what -strict fails an E9 row on: a STALLED cell or a
// per-instance violation.
func (r E9Row) strict() error {
	if !r.Completed || r.Violations != 0 {
		return fmt.Errorf("strict: e9 k=%d/%s completed=%v violations=%d", r.Keys, r.Skew, r.Completed, r.Violations)
	}
	return nil
}

// E9Lockspace sweeps instance counts × skews at cube order p. Cells are
// independent and seeded from their coordinates, so the sweep — and the
// stalled cells' autopsies, written after it in cell order — is
// byte-identical at any parallelism.
func E9Lockspace(o Options, p int, keyCounts []int) ([]E9Row, error) {
	type cell struct {
		keys int
		skew string
	}
	var cells []cell
	for _, k := range keyCounts {
		for _, s := range E9Skews {
			cells = append(cells, cell{keys: k, skew: s})
		}
	}
	runs := make([]keyedRun, len(cells))
	rows, err := forEach(o.Workers, len(cells), func(i int) (E9Row, error) {
		c := cells[i]
		row, r, err := runE9(o, p, c.keys, c.skew)
		if err != nil {
			err = fmt.Errorf("harness: e9 k=%d/%s: %w", c.keys, c.skew, err)
		}
		runs[i] = r
		return row, err
	})
	if err != nil {
		return nil, err
	}
	o.writeAutopsies(runs)
	return rows, nil
}

// runE9 is one lockspace cell — a keyed schedule of max(6K, 4N) requests
// over K instances, carrying the crash — as its row and its raw run. The
// K=1 cell carries the crash too: its historical exemption existed only
// because a single-mutex crash at N=256 under load used to land in the
// DESIGN.md §7 storm residual, which the §7 fix removed.
func runE9(o Options, p, keys int, skew string) (E9Row, keyedRun, error) {
	// Per-cell seed: a fixed mix of the coordinates, so adding or
	// reordering cells never changes another cell's draw stream.
	seed := o.Seed + int64(keys)*7919
	if skew == "zipf" {
		seed++
	}
	r, err := runKeyed(o, keyedCell{p: p, keys: keys, skew: skew, seed: seed, count: max(6*keys, 4<<p),
		crash: true, reason: fmt.Sprintf("e9-k%d-%s-stalled", keys, skew)})
	row := E9Row{N: 1 << p, Keys: keys, Skew: skew, Requests: r.scheduled, Grants: r.grants,
		Regens: r.regens, Stale: r.stale, Violations: r.violations, States: r.states, Completed: r.stalled == 0}
	if row.Grants > 0 {
		row.MsgsPerCS = float64(r.msgs) / float64(row.Grants)
	}
	return row, r, err
}

// formatE9 renders the lockspace sweep.
func formatE9(rows []E9Row) string {
	header := []string{"N", "keys", "skew", "requests", "grants", "msgs/CS", "regens", "stale", "violations", "states", "max states", "outcome"}
	body := make([][]string, len(rows))
	for i, r := range rows {
		outcome := "completed"
		if !r.Completed {
			outcome = "STALLED"
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
			strconv.Itoa(r.N * r.Keys),
			outcome,
		}
	}
	return "E9 — lockspace scaling (K instances multiplexed over one engine, crash injected into the hot instance)\n" +
		table(header, body)
}
