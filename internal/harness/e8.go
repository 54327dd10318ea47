package harness

import (
	"fmt"
	"strconv"
	"time"

	"repro/internal/ocube"
	"repro/internal/sim"
	"repro/internal/workload"
)

// E8 — baselines under failure. The paper's headline claim is
// comparative: O(log₂²N) messages per critical section *with* fault
// tolerance, against token-based peers that have none. E5 compares the
// message costs; E8 compares what the fault tolerance buys, which only
// became possible once every algorithm ran on the unified engine with
// shared failure injection and delay models. Each scenario runs the
// identical seeded schedule through the fault-tolerant open-cube
// algorithm and the classic Raymond / Naimi-Trehel baselines:
//
//   - crash-in-cs: the holder of the k-th grant fail-stops inside its
//     critical section and recovers later. The open cube regenerates the
//     token and serves every remaining request; a baseline's token dies
//     with the crashed node (Raymond's privilege holder still believes
//     using=true after recovery), so the run never quiesces.
//   - lossy: every message is lost independently with probability 1%
//     (no crashes). Token or request loss is unrecoverable for the
//     baselines; the open cube's watchdogs re-issue and regenerate.
//   - partition: messages crossing a half-cube cut during a transient
//     window are lost — the same stakes as lossy, localized in time.
//
// Message loss violates the paper's reliable-channel assumption
// (Section 2), so the open-cube rows of the lossy and partition
// scenarios probe beyond the algorithm's stated model; EXPERIMENTS.md
// §E8 records how it holds up there.

// E8 scenario names.
const (
	// ScenarioCrashInCS fail-stops the holder of a chosen grant inside
	// its critical section, recovering it later.
	ScenarioCrashInCS = "crash-in-cs"
	// ScenarioLossy drops every message independently with probability
	// e8LossProb.
	ScenarioLossy = "lossy"
	// ScenarioPartition drops messages crossing a half-cube cut during a
	// transient window.
	ScenarioPartition = "partition"
)

// E8Scenarios lists the scenarios in report order.
var E8Scenarios = []string{ScenarioCrashInCS, ScenarioLossy, ScenarioPartition}

// E8Algorithms lists the algorithms compared by E8: the fault-tolerant
// open cube — plain and with the opt-in epoch fence (core.Config
// .EpochFence), which refuses to act on tokens older than the observer's
// epoch high-water mark and should convert the lossy scenario's
// double-token violations into watchdog repairs — against the two
// classic baselines.
var E8Algorithms = []string{"open-cube", "open-cube-fenced", "classic-raymond", "classic-naimi-trehel"}

// e8LossProb is the per-message loss probability of the lossy scenario.
const e8LossProb = 0.01

// e8Horizon is the schedule horizon for a 2^p-node E8 run; the partition
// scenario places its window relative to the same value, so the two
// cannot desync.
func e8Horizon(n int) time.Duration { return time.Duration(8*n) * delta }

// faultSchedule is the one seeded schedule every cell of E8 and of E11
// replays on 2^p nodes.
func faultSchedule(o Options, p int) []workload.Request {
	n := 1 << p
	return workload.Uniform(newRng(o.Seed), n, 6*n, e8Horizon(n))
}

// E8Row is one (algorithm, scenario) measurement.
type E8Row struct {
	Algorithm string
	N         int
	Scenario  string
	Requests  int   // scheduled critical-section wishes
	Grants    int64 // critical sections actually served
	Regens    int64 // token regenerations (open-cube only by construction)
	// Stale counts stale-epoch token sightings: of the Regens column,
	// at least this many raced a token that was still alive (the loss
	// conclusion was premature) rather than replacing a true loss. Only
	// meaningful beyond the paper's reliable-channel model — the lossy
	// and partition scenarios — and a lower bound by construction (see
	// core.Host.StaleTokens).
	Stale      int64
	Lost       int64 // messages lost in transit or at failed nodes
	Violations int64
	Completed  bool // the run quiesced: no request left waiting forever
}

// E8FaultComparison runs every scenario through every algorithm on the
// unified engine and reports what each run salvaged. All cells share one
// seeded schedule per cube order and run concurrently on the sweep pool.
func E8FaultComparison(o Options, p int) ([]E8Row, error) {
	reqs := faultSchedule(o, p)
	type cell struct {
		algo, scenario string
	}
	var cells []cell
	for _, s := range E8Scenarios {
		for _, a := range E8Algorithms {
			cells = append(cells, cell{algo: a, scenario: s})
		}
	}
	return forEach(o.Workers, len(cells), func(i int) (E8Row, error) {
		c := cells[i]
		row, err := runE8(o, c.algo, c.scenario, p, reqs)
		if err != nil {
			err = fmt.Errorf("harness: e8 %s/%s: %w", c.algo, c.scenario, err)
		}
		return row, err
	})
}

// runE8 is one (algorithm, scenario) cell. The comparison point is the
// paper's algorithm with its Section 5 failure handling on.
func runE8(o Options, algo, scenario string, p int, reqs []workload.Request) (E8Row, error) {
	n := 1 << p
	row := E8Row{Algorithm: algo, N: n, Scenario: scenario, Requests: len(reqs)}
	horizon := e8Horizon(n)
	delay := sim.UniformDelay(delta/2, delta)
	switch scenario {
	case ScenarioCrashInCS:
	case ScenarioLossy:
		delay = sim.LossyDelay(e8LossProb, delay)
	case ScenarioPartition:
		half := ocube.Pos(n / 2)
		side := func(x ocube.Pos) bool { return x >= half }
		delay = sim.PartitionWindow(horizon/4, horizon/2, side, delay)
	default:
		return row, fmt.Errorf("unknown scenario %q", scenario)
	}
	w, _, err := simulateAlgorithm(o, algo, p, delay, true)
	if err != nil {
		return row, err
	}
	if scenario == ScenarioCrashInCS {
		w.OnGrant(crashAt(w, 2))
	}
	for _, r := range reqs {
		w.RequestCS(ocube.Pos(r.Node), r.At)
	}
	row.Completed = w.RunUntilQuiescent(24 * time.Hour)
	row.Grants = w.Grants()
	row.Regens = w.Regenerations()
	row.Stale = w.StaleTokens()
	row.Lost = w.LostInTransit() + w.LostToFailed()
	row.Violations = w.Violations()
	return row, nil
}

// formatE8 renders the fault-injection comparison grouped by scenario.
func formatE8(rows []E8Row) string {
	header := []string{"scenario", "N", "algorithm", "requests", "grants", "regens", "stale", "lost", "violations", "outcome"}
	body := make([][]string, len(rows))
	for i, r := range rows {
		outcome := "completed"
		if !r.Completed {
			outcome = "STALLED"
		}
		body[i] = []string{
			r.Scenario,
			strconv.Itoa(r.N),
			r.Algorithm,
			strconv.Itoa(r.Requests),
			strconv.FormatInt(r.Grants, 10),
			strconv.FormatInt(r.Regens, 10),
			strconv.FormatInt(r.Stale, 10),
			strconv.FormatInt(r.Lost, 10),
			strconv.FormatInt(r.Violations, 10),
			outcome,
		}
	}
	return "E8 — fault injection across algorithms (crash/recovery, loss, partition on the unified engine)\n" +
		table(header, body)
}
