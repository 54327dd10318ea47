package harness

import (
	"strings"
	"testing"
)

// e13Render runs a shrunken E13 sweep at the given worker and shard
// counts and returns the formatted table — the exact stdout artifact.
func e13Render(t *testing.T, workers, shards int) string {
	t.Helper()
	cells := []E13Cell{
		{P: 3, Keys: 24, Skew: "uniform"},
		{P: 3, Keys: 24, Skew: "zipf"},
		{P: 4, Keys: 96, Skew: "zipf"},
	}
	rows, err := E13Sharded(Options{Seed: 42, Workers: workers, Shards: shards}, cells)
	if err != nil {
		t.Fatalf("E13 workers=%d shards=%d: %v", workers, shards, err)
	}
	return formatE13(rows)
}

// TestE13DeterministicAcrossShardsAndWorkers pins the PR's headline
// contract at the harness level: the E13 table is byte-identical for
// any -shards count and any -parallel worker count. The shard count and
// worker pool only decide scheduling; every cell's slices are seeded
// from coordinates and merged in slice order.
func TestE13DeterministicAcrossShardsAndWorkers(t *testing.T) {
	base := e13Render(t, 1, 1)
	if !strings.Contains(base, "E13 —") || !strings.Contains(base, "completed") {
		t.Fatalf("E13 table looks truncated:\n%s", base)
	}
	if strings.Contains(base, "STALLED") {
		t.Fatalf("E13 smoke sweep stalled:\n%s", base)
	}
	for _, shards := range []int{8, 64} {
		if got := e13Render(t, 1, shards); got != base {
			t.Errorf("shards=%d table diverges:\n--- shards=1 ---\n%s\n--- shards=%d ---\n%s", shards, base, shards, got)
		}
	}
	if got := e13Render(t, 4, 8); got != base {
		t.Errorf("parallel=4/shards=8 table diverges:\n--- base ---\n%s\n--- got ---\n%s", base, got)
	}
}

// TestE13CrashRecoversEverywhere pins the scenario semantics: the sweep
// regenerates tokens (the hot-shard crash is live), never violates
// safety, and reports the E9-flat msgs/CS on the larger cell.
func TestE13CrashRecoversEverywhere(t *testing.T) {
	rows, err := E13Sharded(Options{Seed: 42, Shards: 4}, []E13Cell{{P: 4, Keys: 96, Skew: "zipf"}})
	if err != nil {
		t.Fatal(err)
	}
	r := rows[0]
	if r.Regens < 1 {
		t.Errorf("regens=%d: hot-shard crash did not reach recovery", r.Regens)
	}
	if r.Violations != 0 || r.Stalled != 0 {
		t.Errorf("violations=%d stalled=%d", r.Violations, r.Stalled)
	}
	if r.WaitP99 < r.WaitP50 || r.WaitP50 <= 0 {
		t.Errorf("wait quantiles inconsistent: p50=%v p99=%v", r.WaitP50, r.WaitP99)
	}
}

// TestE13ThroughputGate pins the sharded gate cells: a completed run
// reports msgs and msgs/grant, and the shard-worker count changes neither.
func TestE13ThroughputGate(t *testing.T) {
	e1, m1, err := gateNamed(t, "e13_n16_k256_shard1").Run(Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	e8, m8, err := gateNamed(t, "e13_n16_k256_shard8").Run(Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if e1 != e8 || m1 != m8 {
		t.Errorf("shard-count replay diverged: (%d,%v) vs (%d,%v)", e1, m1, e8, m8)
	}
	if e1 == 0 || m1 == 0 {
		t.Errorf("empty run: msgs=%d msgs/grant=%v", e1, m1)
	}
}
