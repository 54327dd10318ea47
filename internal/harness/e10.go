package harness

import (
	"fmt"
	"strconv"
	"time"

	"repro/internal/metrics"
	"repro/internal/ocube"
	"repro/internal/sim"
	"repro/internal/workload"
)

// E10 — steady-state fault tolerance under continuous churn. Every
// fault-tolerant experiment before PR 5 ran in episodes: inject one
// failure, wait for quiescence, measure, repeat — a structure imposed by
// the DESIGN.md §7 storm residual, not by the questions being asked. The
// survey literature compares token algorithms under SUSTAINED churn
// (failures arriving concurrently with load, no synchronization
// barriers); with the §7 fix in place E10 measures the open cube that
// way: Poisson request arrivals and Poisson fail/recover churn run
// together over a long horizon, in-flight metrics are sampled at
// virtual-time checkpoints rather than at quiescence, and the run ends
// with a settle phase that must drain — a non-quiescent tail would be a
// §7 regression, pinned at zero by the tests and the -strict CLI gate.
//
// Reported per order: sustained msgs/CS over the post-warmup checkpoint
// window (the steady-state figure, compared against the failure-free
// Lavault average and the paper's log²N fault envelope), whole-run
// msgs/CS for reference, regenerations and stale-token sightings, and
// the driver-observed waiting-time distribution (p50/p99 from request
// acceptance to grant), whose tail is where churn actually hurts.

// E10 churn parameters, in δ units (see delta). The failure gap is
// chosen so detection (≥ the suspicion delay) routinely overlaps the
// next crash at large P — sustained churn, not serialized episodes —
// while staying inside the envelope the quiescence fuzz pins
// (internal/sim failure tests run far harsher gaps at small P).
const (
	e10FailGap     = 500 // mean crash inter-arrival, in δ
	e10Down        = 300 // mean downtime, in δ
	e10Horizon     = 16000
	e10Checkpoints = 8 // warmup = first window, steady = the rest
	// e10Runs is the number of independently seeded runs aggregated per
	// order: whether churn happens to hit token holders and waiting
	// requesters is seed luck, so a single run per N reports an anecdote
	// — one run may ride failure-free token paths while another eats a
	// crash cluster. Cells are (order, run) pairs on the sweep pool;
	// rows merge their runs in fixed order.
	e10Runs = 4
)

// E10Row is one steady-state order: e10Runs independently seeded churn
// runs, merged.
type E10Row struct {
	N           int
	Runs        int
	Requests    int     // accepted request arrivals over the horizons
	Grants      int64   // critical sections served (settle phases included)
	Failures    int     // crash events injected
	SteadyMsgs  float64 // msgs/CS across the post-warmup checkpoint windows
	OverallMsgs float64 // msgs/CS across the whole runs including settle
	Lavault     float64 // failure-free reference ¾·log₂N + 5/4
	Log2Sq      float64 // the paper's O(log²N) fault envelope
	Regens      int64
	Stale       int64
	Violations  int64
	WaitP50     time.Duration // request-accept → grant, median (runs pooled)
	WaitP99     time.Duration // and tail
	Stuck       int           // runs whose settle phase failed to drain (§7 regression)
}

// strict is what -strict fails an E10 row on: a settle phase that did not
// drain, or a violation.
func (r E10Row) strict() error {
	if r.Stuck != 0 || r.Violations != 0 {
		return fmt.Errorf("strict: e10 N=%d stuck=%d violations=%d", r.N, r.Stuck, r.Violations)
	}
	return nil
}

// e10Cell is one run's raw measurement, mergeable into its order's row.
type e10Cell struct {
	requests     int
	grants       int64
	failures     int
	steadyMsgs   int64 // delivered messages across the post-warmup window
	steadyGrants int64
	totalMsgs    int64
	regens       int64
	stale        int64
	violations   int64
	waits        *metrics.Summary
	stuck        int
}

// E10SteadyChurn runs the sweep for the given cube orders. The (order,
// run) cells are independent seeded runs spread over the sweep pool and
// merged into rows in fixed order, so tables are byte-identical at any
// -parallel count.
func E10SteadyChurn(o Options, ps []int) ([]E10Row, error) {
	cells, err := forEach(o.Workers, len(ps)*e10Runs, func(i int) (e10Cell, error) {
		p, run := ps[i/e10Runs], i%e10Runs
		cell, err := runE10(o, p, run)
		if err != nil {
			err = fmt.Errorf("harness: e10 p=%d run=%d: %w", p, run, err)
		}
		return cell, err
	})
	if err != nil {
		return nil, err
	}
	rows := make([]E10Row, len(ps))
	for i, p := range ps {
		rows[i] = e10Merge(p, cells[i*e10Runs:(i+1)*e10Runs])
	}
	return rows, nil
}

// e10Merge folds one order's runs into its row, in run order.
func e10Merge(p int, cells []e10Cell) E10Row {
	row := E10Row{N: 1 << p, Runs: len(cells),
		Lavault: ocube.AverageApprox(1 << p), Log2Sq: float64(p * p)}
	waits := &metrics.Summary{}
	var steadyMsgs, steadyGrants, totalMsgs int64
	for _, c := range cells {
		row.Requests += c.requests
		row.Grants += c.grants
		row.Failures += c.failures
		row.Regens += c.regens
		row.Stale += c.stale
		row.Violations += c.violations
		row.Stuck += c.stuck
		steadyMsgs += c.steadyMsgs
		steadyGrants += c.steadyGrants
		totalMsgs += c.totalMsgs
		waits.Merge(c.waits)
	}
	if steadyGrants > 0 {
		row.SteadyMsgs = float64(steadyMsgs) / float64(steadyGrants)
	}
	if row.Grants > 0 {
		row.OverallMsgs = float64(totalMsgs) / float64(row.Grants)
	}
	row.WaitP50 = time.Duration(waits.Quantile(0.5))
	row.WaitP99 = time.Duration(waits.Quantile(0.99))
	return row
}

// runE10 is one churn cell: continuous load and continuous fail/recover
// arrivals over the horizon, checkpoint sampling in flight, then a
// settle phase that must reach quiescence. The cell seed mixes (p, run)
// with fixed strides so adding runs or orders never changes another
// cell's draw streams.
func runE10(o Options, p, run int) (e10Cell, error) {
	n := 1 << p
	cellSeed := o.Seed + int64(p)*104729 + int64(run)*7919
	cell := e10Cell{waits: &metrics.Summary{}}
	// The suspicion slack scales with the cube order exactly as in E9:
	// queueing behind churn-lengthened waits grows with the (3/2·p)·δ
	// round trip, and a small-cube slack would let healthy large-P waits
	// masquerade as failures.
	node := ftNodeConfig()
	node.SuspicionSlack += time.Duration(8*p) * delta
	w, rec, err := simulate(sim.Config{P: p, Seed: cellSeed,
		Delay: sim.UniformDelay(delta/2, delta), Node: node, CSTime: csTime(delta)})
	if err != nil {
		return cell, err
	}

	// Waiting time, measured at the driver: accept→grant per node. Each
	// node has at most one outstanding request, so pairs match FIFO.
	pending := make([]time.Duration, n)
	for i := range pending {
		pending[i] = -1
	}
	w.OnRequest(func(x ocube.Pos) {
		cell.requests++
		pending[x] = w.Eng.Now()
	})
	w.OnGrant(func(x ocube.Pos) {
		if pending[x] >= 0 {
			cell.waits.Observe(float64(w.Eng.Now() - pending[x]))
			pending[x] = -1
		}
	})

	horizon := e10Horizon * delta
	rng := newRng(cellSeed)
	// Load first, churn second: one fixed draw order, so the schedules
	// are a pure function of the cell seed.
	loadGap := time.Duration(4*p+8) * delta
	reqs := workload.Poisson(rng, n, loadGap, horizon)
	for _, r := range reqs {
		w.RequestCS(ocube.Pos(r.Node), r.At)
	}
	churn := workload.Churn(rng, n, e10FailGap*delta, e10Down*delta, horizon)
	for _, ev := range churn {
		if ev.Recover {
			w.Recover(ocube.Pos(ev.Node), ev.At)
		} else {
			w.Fail(ocube.Pos(ev.Node), ev.At)
			cell.failures++
		}
	}

	// Checkpoint sampling: cumulative (msgs, grants) at C evenly spaced
	// virtual instants. The first window is warmup; the steady figure is
	// the delta across the remaining windows — no quiescence required.
	type sample struct {
		msgs   int64
		grants int64
	}
	samples := make([]sample, 0, e10Checkpoints)
	for c := 1; c <= e10Checkpoints; c++ {
		w.Eng.RunUntil(horizon * time.Duration(c) / e10Checkpoints)
		samples = append(samples, sample{msgs: rec.Total(), grants: w.Grants()})
	}
	warm, last := samples[0], samples[e10Checkpoints-1]
	cell.steadyMsgs = last.msgs - warm.msgs
	cell.steadyGrants = last.grants - warm.grants

	// Settle: no new load or crashes arrive after the horizon (pending
	// recoveries still fire), so the system must drain. The cap covers a
	// deep backlog plus several full search generations at the rescaled
	// round delay; failing it is the §7 signature.
	if !w.RunUntilQuiescent(horizon + 120000*delta) {
		cell.stuck = 1
	}
	cell.grants = w.Grants()
	cell.totalMsgs = rec.Total()
	cell.regens = w.Regenerations()
	cell.stale = w.StaleTokens()
	cell.violations = w.Violations()
	return cell, nil
}

// formatE10 renders the steady-state churn table.
func formatE10(rows []E10Row) string {
	header := []string{"N", "runs", "requests", "grants", "failures", "steady msgs/CS",
		"overall msgs/CS", "Lavault", "log2²N", "regens", "stale", "violations",
		"wait p50", "wait p99", "stuck"}
	body := make([][]string, len(rows))
	for i, r := range rows {
		body[i] = []string{
			strconv.Itoa(r.N),
			strconv.Itoa(r.Runs),
			strconv.Itoa(r.Requests),
			strconv.FormatInt(r.Grants, 10),
			strconv.Itoa(r.Failures),
			fmt.Sprintf("%.3f", r.SteadyMsgs),
			fmt.Sprintf("%.3f", r.OverallMsgs),
			fmt.Sprintf("%.4f", r.Lavault),
			fmt.Sprintf("%.0f", r.Log2Sq),
			strconv.FormatInt(r.Regens, 10),
			strconv.FormatInt(r.Stale, 10),
			strconv.FormatInt(r.Violations, 10),
			fmtDelta(r.WaitP50),
			fmtDelta(r.WaitP99),
			strconv.Itoa(r.Stuck),
		}
	}
	return "E10 — steady-state churn (continuous Poisson fail/recover concurrent with load; no episodes)\n" +
		table(header, body)
}

// fmtDelta renders a duration in δ units (delta is the experiments'
// simulated maximum message delay).
func fmtDelta(d time.Duration) string {
	return fmt.Sprintf("%.1fδ", float64(d)/float64(delta))
}
