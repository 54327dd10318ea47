package chaos

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/props"
)

// The TestLiveStorm_* tables port the 15 pinned storm seeds of
// internal/sim/storm_test.go — the fail/recover episodes that once
// stalled before the §7 search-storm fix — from the simulated engine to
// the live cluster, each seed reduced to its scenario shape: a holder
// kill, a double kill, or a kill landing during the recovery search.
// The shapes run as scripted fault schedules through the in-process
// chaos driver with the full property suite attached, so the old
// regression corpus now also checks fences, accounting, and the token
// census under the race detector.

// stormConfig is the shared live-storm shape: a small hot cluster so
// every seed finishes in a few seconds while keys stay contended.
func stormConfig(seed int64) Config {
	return Config{
		P:        2, // N=4
		Seed:     seed,
		Duration: 2500 * time.Millisecond,
		Keys:     8,
		ZipfS:    1.2,
		LeaseTTL: 200 * time.Millisecond,
	}
}

// runStorm executes one scripted scenario and fails the test on any
// always-assertion failure, returning the result for shape-specific
// coverage checks. A flight recorder rides along, so a failed verdict
// prints the autopsy Run writes: the failing assertions, the recorded
// token lineage and the census of every busy or token-holding instance.
func runStorm(t *testing.T, cfg Config) *Result {
	t.Helper()
	var autopsy bytes.Buffer
	cfg.Autopsy = &autopsy
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("chaos run setup: %v", err)
	}
	if res.Err != nil {
		t.Fatalf("property failure: %v\n%s\nautopsy:\n%s", res.Err, props.Format(res.Report), autopsy.String())
	}
	if !res.Drained {
		t.Fatalf("cluster failed to quiesce after the storm\n%s", props.Format(res.Report))
	}
	return res
}

// reached reports whether the assertion with the given id was reached.
func reached(rep []props.Assertion, id string) bool {
	for _, a := range rep {
		if a.ID == id {
			return !a.Unreached()
		}
	}
	return false
}

// requireReached runs the episode and requires the given coverage points.
// Whether a sometimes assertion is reached depends on where a few seconds
// of wall-clock scheduling put the holder when the fault lands, and on a
// loaded two-core box one episode can miss it; so when coverage alone is
// missing the episode is run again, at most three times in all. An always
// failure or a failed drain (runStorm) still fails at once.
func requireReached(t *testing.T, cfg Config, ids ...string) *Result {
	t.Helper()
	const attempts = 3
	for attempt := 1; ; attempt++ {
		res := runStorm(t, cfg)
		missing := ""
		for _, id := range ids {
			if !reached(res.Report, id) {
				missing = id
				break
			}
		}
		if missing == "" {
			return res
		}
		if attempt == attempts {
			t.Fatalf("coverage %q not reached in %d episodes\n%s", missing, attempts, props.Format(res.Report))
		}
		t.Logf("coverage %q not reached in episode %d; running it again", missing, attempt)
	}
}

// victims derives the seed's victim node and a distinct second node,
// the same way the sim storms derived their crash schedule: from the
// seed's own stream.
func victims(seed int64, n int) (int, int) {
	rng := rand.New(rand.NewSource(seed))
	a := rng.Intn(n)
	b := (a + 1 + rng.Intn(n-1)) % n
	return a, b
}

// TestLiveStorm_HolderKill: seeds whose stall shape was a single crash
// of the token holder. Live form: grab the hottest key through the
// victim, kill it mid-hold, and require the kill-reclaim coverage.
func TestLiveStorm_HolderKill(t *testing.T) {
	seeds := []int64{350, 309, 83, 328, 263}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		t.Run(seedName(seed), func(t *testing.T) {
			t.Parallel()
			cfg := stormConfig(seed)
			v, _ := victims(seed, 1<<cfg.P)
			cfg.Faults = []Fault{
				{At: 700 * time.Millisecond, Kind: FaultKillHolder, Node: v, Down: 500 * time.Millisecond},
			}
			res := requireReached(t, cfg, props.PropKillWhileHolding, props.PropReclaimAfterKill)
			if res.Kills != 1 {
				t.Fatalf("kills = %d, want 1", res.Kills)
			}
		})
	}
}

// TestLiveStorm_DoubleKill: seeds whose stall shape was two crashes
// with overlapping downtime. Live form: kill the holder, then a second
// node while the first is still down.
func TestLiveStorm_DoubleKill(t *testing.T) {
	seeds := []int64{158, 370, 64, 310, 25}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		t.Run(seedName(seed), func(t *testing.T) {
			t.Parallel()
			cfg := stormConfig(seed)
			v, w := victims(seed, 1<<cfg.P)
			cfg.Faults = []Fault{
				{At: 700 * time.Millisecond, Kind: FaultKillHolder, Node: v, Down: 800 * time.Millisecond},
				{At: 1000 * time.Millisecond, Kind: FaultKill, Node: w, Down: 500 * time.Millisecond},
			}
			res := requireReached(t, cfg, props.PropKillWhileHolding, props.PropReclaimAfterKill)
			if res.Kills != 2 {
				t.Fatalf("kills = %d, want 2", res.Kills)
			}
		})
	}
}

// TestLiveStorm_KillDuringSearch: seeds whose stall shape was a crash
// landing while the recovery search for an earlier crash was still in
// flight. Live form: kill the holder, then kill a second node 150ms
// later — inside the regeneration window of the first.
func TestLiveStorm_KillDuringSearch(t *testing.T) {
	seeds := []int64{389, 139, 204, 162, 272}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		t.Run(seedName(seed), func(t *testing.T) {
			t.Parallel()
			cfg := stormConfig(seed)
			v, w := victims(seed, 1<<cfg.P)
			cfg.Faults = []Fault{
				{At: 700 * time.Millisecond, Kind: FaultKillHolder, Node: v, Down: 700 * time.Millisecond},
				{At: 850 * time.Millisecond, Kind: FaultKill, Node: w, Down: 700 * time.Millisecond},
			}
			requireReached(t, cfg, props.PropKillWhileHolding, props.PropReclaimAfterKill)
		})
	}
}

func seedName(seed int64) string {
	return fmt.Sprintf("seed%d", seed)
}

// smokeConfig is TestChaosSmoke's shape: a generated plan with two
// kills on four nodes over 5 s, 16 Zipf keys and a 250 ms lease.
func smokeConfig(seed int64) Config {
	return Config{
		P:        2,
		Seed:     seed,
		Duration: 5 * time.Second,
		Keys:     16,
		ZipfS:    1.1,
		LeaseTTL: 250 * time.Millisecond,
		Kills:    2,
	}
}

// TestChaosSmoke is the in-package slice of the CI chaos-smoke job: a
// seeded generated plan (kills, a partition, a zombie, a burst) over a
// few seconds, requiring every always assertion and the three headline
// coverage points.
func TestChaosSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos smoke needs a few seconds of wall clock")
	}
	cfg := smokeConfig(42)
	cfg.Log = t.Logf
	res := requireReached(t, cfg,
		props.PropKillWhileHolding,
		props.PropReclaimAfterLease,
		props.PropPartitionHeal,
	)
	if res.Totals.Grants == 0 {
		t.Fatal("smoke run made no grants")
	}
	t.Logf("smoke: %d grants, %d reclaims (max %v), coverage %.0f%%\n%s",
		res.Totals.Grants, res.Totals.Reclaims, res.Totals.MaxReclaim,
		100*res.Coverage, props.Format(res.Report))
}
