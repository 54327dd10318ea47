package harness

import (
	"strings"
	"testing"

	"repro/internal/lockspace"
	"repro/internal/metrics"
)

// e13TestCells is a shrunken E13 sweep: two cells below 64 keys, where
// most slices are empty, and one that fills the grid.
var e13TestCells = []E13Cell{
	{P: 3, Keys: 24, Skew: "uniform"},
	{P: 3, Keys: 24, Skew: "zipf"},
	{P: 4, Keys: 96, Skew: "zipf"},
}

// TestE13DeterministicAcrossShardsAndWorkers pins the sweep's contract:
// the rows and the table are identical for any worker count running the
// 64 key shards, because every slice is seeded from its coordinates and
// each cell's slices merge in slice order, never in finish order.
func TestE13DeterministicAcrossShardsAndWorkers(t *testing.T) {
	var base []E13Row
	var baseTable string
	for _, workers := range []int{1, 4, 64} {
		rows, err := E13Sharded(Options{Seed: 42, Workers: workers}, e13TestCells)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		table := formatE13(rows)
		if base == nil {
			base, baseTable = rows, table
			if !strings.Contains(table, "completed") || strings.Contains(table, "STALLED") {
				t.Fatalf("E13 smoke sweep did not complete:\n%s", table)
			}
			continue
		}
		for i := range rows {
			if rows[i] != base[i] {
				t.Errorf("workers=%d cell %d diverges:\n  base=%+v\n  got =%+v", workers, i, base[i], rows[i])
			}
		}
		if table != baseTable {
			t.Errorf("workers=%d table diverges:\n--- workers=1 ---\n%s\n--- workers=%d ---\n%s", workers, baseTable, workers, table)
		}
	}
}

// waitsFingerprint flattens a pooled wait distribution for exact
// comparison; the row holds only two of its quantiles.
func waitsFingerprint(waits *metrics.Summary) [7]float64 {
	return [7]float64{
		float64(waits.Count()), waits.Mean(), waits.Stddev(), waits.Min(),
		waits.Quantile(0.5), waits.Quantile(0.99), waits.Max(),
	}
}

// TestE13MergeIndependentOfSliceSchedule pins the merge below the sweep:
// one cell's slices run one by one in reverse, or on more workers than
// there are slices, merge to the same counters and the same full wait
// distribution, and to the row E13Sharded reports.
func TestE13MergeIndependentOfSliceSchedule(t *testing.T) {
	c := E13Cell{P: 3, Keys: 96, Skew: "zipf"}
	o := Options{Seed: 99}
	members := e13Members(c.Keys)

	reversed := make([]keyedRun, e13Slices)
	for i := e13Slices - 1; i >= 0; i-- {
		var err error
		if reversed[i], err = runE13Slice(o, c, i, members[i]); err != nil {
			t.Fatalf("slice %d: %v", i, err)
		}
	}
	pooled, err := forEach(e13Slices+7, e13Slices, func(i int) (keyedRun, error) {
		return runE13Slice(o, c, i, members[i])
	})
	if err != nil {
		t.Fatal(err)
	}

	baseRow, baseWaits := mergeE13(c, reversed)
	if baseRow.Grants == 0 {
		t.Fatal("cell produced no grants; test cell too small")
	}
	row, waits := mergeE13(c, pooled)
	if row != baseRow || waitsFingerprint(waits) != waitsFingerprint(baseWaits) {
		t.Errorf("pooled merge diverges from sequential:\n  base=%+v %v\n  got =%+v %v",
			baseRow, waitsFingerprint(baseWaits), row, waitsFingerprint(waits))
	}
	swept, err := E13Sharded(Options{Seed: 99, Workers: 4}, []E13Cell{c})
	if err != nil {
		t.Fatal(err)
	}
	if swept[0] != baseRow {
		t.Errorf("E13Sharded row diverges from the slice-by-slice merge:\n  base=%+v\n  got =%+v", baseRow, swept[0])
	}
}

// TestE13CrashConfinedToHotSlice pins the failure scenario slice by
// slice: the crash fires only in the slice owning global key 0, recovery
// regenerates the token there, no other slice regenerates, and safety
// holds and every slice settles.
func TestE13CrashConfinedToHotSlice(t *testing.T) {
	c := E13Cell{P: 3, Keys: 96, Skew: "zipf"}
	members := e13Members(c.Keys)
	hot := lockspace.InstanceShard(0, e13Slices)
	for i := 0; i < e13Slices; i++ {
		s, err := runE13Slice(Options{Seed: 99}, c, i, members[i])
		if err != nil {
			t.Fatalf("slice %d: %v", i, err)
		}
		if i == hot && s.regens < 1 {
			t.Errorf("hot slice %d: regens=%d, the crash did not trigger token regeneration", i, s.regens)
		}
		if i != hot && s.regens != 0 {
			t.Errorf("slice %d: regens=%d, but only hot slice %d crashes", i, s.regens, hot)
		}
		if s.violations != 0 || s.stalled != 0 {
			t.Errorf("slice %d: violations=%d stalled=%d", i, s.violations, s.stalled)
		}
	}
}

// TestE13EmptySlicesMergeAsZeros runs fewer keys than slices, so most
// slices are empty, and pins that they merge as true zeros: every
// accepted request has exactly one wait sample and the pooled waits are
// not dragged to zero by phantom samples.
func TestE13EmptySlicesMergeAsZeros(t *testing.T) {
	c := E13Cell{P: 3, Keys: 5, Skew: "zipf"}
	members := e13Members(c.Keys)
	slices := make([]keyedRun, e13Slices)
	for i := range slices {
		var err error
		if slices[i], err = runE13Slice(Options{Seed: 99}, c, i, members[i]); err != nil {
			t.Fatalf("slice %d: %v", i, err)
		}
	}
	row, waits := mergeE13(c, slices)
	if row.Grants == 0 {
		t.Fatal("no grants")
	}
	if row.Requests != int(waits.Count()) {
		t.Errorf("requests=%d but wait samples=%d: empty slices must contribute no phantom samples",
			row.Requests, waits.Count())
	}
	if waits.Mean() <= 0 || row.WaitP50 <= 0 {
		t.Errorf("wait mean=%v p50=%v: a contended zipf cell shows nonzero waiting", waits.Mean(), row.WaitP50)
	}
	if row.Violations != 0 || row.Stalled != 0 {
		t.Errorf("violations=%d stalled=%d", row.Violations, row.Stalled)
	}
}

// TestE13SeedMovesRow pins that the slice streams really depend on the
// seed, not on wall-clock state.
func TestE13SeedMovesRow(t *testing.T) {
	cell := []E13Cell{{P: 3, Keys: 48, Skew: "zipf"}}
	a, err := E13Sharded(Options{Seed: 99}, cell)
	if err != nil {
		t.Fatal(err)
	}
	b, err := E13Sharded(Options{Seed: 100}, cell)
	if err != nil {
		t.Fatal(err)
	}
	if a[0] == b[0] {
		t.Errorf("seeds 99 and 100 produced the same row %+v", a[0])
	}
}

// TestE13RejectsBadCell pins input validation: no keys, or a skew the
// workload does not know, is an error before any slice runs.
func TestE13RejectsBadCell(t *testing.T) {
	for _, c := range []E13Cell{{P: 3, Keys: 0, Skew: "zipf"}, {P: 3, Keys: 8, Skew: "bimodal"}} {
		if _, err := E13Sharded(Options{Seed: 1}, []E13Cell{c}); err == nil {
			t.Errorf("%+v accepted", c)
		}
	}
}

// TestE13CrashRecoversEverywhere pins the scenario semantics: the sweep
// regenerates tokens (the hot-slice crash is live), never violates
// safety, and reports consistent wait quantiles on the larger cell.
func TestE13CrashRecoversEverywhere(t *testing.T) {
	rows, err := E13Sharded(Options{Seed: 42, Workers: 4}, []E13Cell{{P: 4, Keys: 96, Skew: "zipf"}})
	if err != nil {
		t.Fatal(err)
	}
	r := rows[0]
	if r.Regens < 1 {
		t.Errorf("regens=%d: hot-slice crash did not reach recovery", r.Regens)
	}
	if r.Violations != 0 || r.Stalled != 0 {
		t.Errorf("violations=%d stalled=%d", r.Violations, r.Stalled)
	}
	if r.WaitP99 < r.WaitP50 || r.WaitP50 <= 0 {
		t.Errorf("wait quantiles inconsistent: p50=%v p99=%v", r.WaitP50, r.WaitP99)
	}
}

// TestE13ThroughputGate pins the sliced gate cell: a completed run
// reports msgs and msgs/grant, and the worker count changes neither.
func TestE13ThroughputGate(t *testing.T) {
	g := gateNamed(t, "e13_n16_k256")
	e1, m1, err := g.Run(Options{Seed: 7, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	e8, m8, err := g.Run(Options{Seed: 7, Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if e1 != e8 || m1 != m8 {
		t.Errorf("worker-count replay diverged: (%d,%v) vs (%d,%v)", e1, m1, e8, m8)
	}
	if e1 == 0 || m1 == 0 {
		t.Errorf("empty run: msgs=%d msgs/grant=%v", e1, m1)
	}
}
