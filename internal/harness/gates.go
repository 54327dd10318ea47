package harness

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/sim"
)

// Gate is one small deterministic cell of the evaluation: the unit
// BenchmarkGate times (ns/op and allocs/op, repeated with -count) and
// whose protocol metric TestGateMetrics pins exactly. A gate over a table
// that -strict gates fails on the same predicate.
type Gate struct {
	// Name identifies the cell; Unit says what Run's metric counts.
	Name, Unit string
	// Run does the cell's work at o.Seed and returns the messages
	// delivered (0 where the sweep does not count them) and the metric.
	Run func(o Options) (events int64, metric float64, err error)
}

// Gates lists the perf gates: the saturated engine with and without fault
// tolerance, the smallest telling cell of each table, and the two classic
// baselines on the same saturated workload.
func Gates() []Gate {
	throughput := func(name, algo string, ft bool) Gate {
		return Gate{name, "msgs/grant", func(o Options) (int64, float64, error) {
			msgs, grants, err := throughputRun(o, algo, ft, 6)
			return perGrant(msgs, grants, nil, err)
		}}
	}
	e9 := func(name string, keys int) Gate {
		return Gate{name, "msgs/grant", func(o Options) (int64, float64, error) {
			row, r, err := runE9(o, 4, keys, "zipf")
			return perGrant(r.msgs, row.Grants, row.strict(), err)
		}}
	}
	return []Gate{
		throughput("engine_throughput", "open-cube", false),
		throughput("engine_throughput_ft", "open-cube", true),
		rowGate("e1_n32", "worst-msgs/request", E1Row.strict,
			func(o Options) ([]E1Row, error) { return E1WorstCase(o, []int{5}, 10) },
			func(r E1Row) float64 { return float64(r.MaxMeasured) }),
		rowGate("e2_n128", "avg-msgs/request", E2Row.strict,
			func(o Options) ([]E2Row, error) { return E2Average(o, []int{7}) },
			func(r E2Row) float64 { return r.Measured }),
		rowGate("e3_n32", "repair-msgs/failure", E3Row.strict,
			func(o Options) ([]E3Row, error) {
				row, err := E3FailureOverhead(o, 5, 25, false)
				return []E3Row{row}, err
			},
			func(r E3Row) float64 { return r.RepairPerFail }),
		rowGate("e4_n32", "tested-nodes/search", nil,
			func(o Options) ([]E4Row, error) { return E4SearchCost(o, []int{5}, 15) },
			func(r E4Row) float64 { return r.MeanReconnect }),
		rowGate("e5_n16", "open-cube-msgs/CS", nil,
			func(o Options) ([]E5Row, error) { return E5Comparison(o, []int{4}, []string{LoadSpread}) },
			func(r E5Row) float64 { return r.MsgsPerCS }),
		rowGate("e6_n32", "open-cube-msgs/CS", nil,
			func(o Options) ([]E6Row, error) { return E6Adaptivity(o, []int{5}) },
			func(r E6Row) float64 { return r.MsgsPerCS }),
		// The smallest large-P cell, failure-free + fault-tolerant.
		rowGate("e7_n256", "ft-msgs/CS", E7Row.strict,
			func(o Options) ([]E7Row, error) { return E7LargeP(o, []int{8}) },
			func(r E7Row) float64 { return r.FTMsgsPerCS }),
		throughput("baseline_raymond", "classic-raymond", false),
		throughput("baseline_naimi_trehel", "classic-naimi-trehel", false),
		// k256 is the steady-state mux cell; k4096 stresses lazy
		// instantiation and the per-node timer wheel under the instance
		// crash.
		e9("e9_n16_k256", 256),
		e9("e9_n16_k4096", 4096),
		// The smallest steady-state churn cell, first run seed.
		{"e10_n256", "msgs/grant", func(o Options) (int64, float64, error) {
			cell, err := runE10(o, 8, 0)
			return perGrant(cell.totalMsgs, cell.grants, e10Merge(8, []e10Cell{cell}).strict(), err)
		}},
		// The hardest session-on recovery cell — 1% loss plus a crash-in-CS
		// with the reliable session layer interposed; the metric counts
		// physical transmissions (retransmits included) per grant.
		{"e11_n16", "msgs/grant", func(o Options) (int64, float64, error) {
			row, err := runE11(o, 4, faultSchedule(o, 4), 0.01, true, true)
			return perGrant(row.msgs, row.Grants, row.strict(), err)
		}},
		// Grants recovered after the CS holder fail-stops.
		rowGate("e8_n16", "grants-after-crash", nil,
			func(o Options) ([]E8Row, error) { return E8FaultComparison(o, 4) },
			func(r E8Row) float64 { return float64(r.Grants) }),
		// One sliced cell, its 64 slices over o.Workers; the million-key
		// cells are `-exp e13 -full`.
		{"e13_n16_k256", "msgs/grant", func(o Options) (int64, float64, error) {
			rows, err := E13Sharded(o, []E13Cell{{P: 4, Keys: 256, Skew: "zipf"}})
			if err != nil {
				return 0, 0, err
			}
			return perGrant(rows[0].msgs, rows[0].Grants, rows[0].strict(), nil)
		}},
	}
}

// rowGate gates a sweep on its first row — by construction of every sweep
// the open-cube one: the row's -strict verdict (nil: the table gates
// nothing), then one of its columns.
func rowGate[R any](name, unit string, strict func(R) error, sweep func(Options) ([]R, error), metric func(R) float64) Gate {
	return Gate{name, unit, func(o Options) (int64, float64, error) {
		rows, err := sweep(o)
		if err == nil && strict != nil {
			err = strict(rows[0])
		}
		if err != nil {
			return 0, 0, err
		}
		return 0, metric(rows[0]), nil
	}}
}

// perGrant folds a cell into the gate shape: its error or -strict verdict
// first, then events plus a msgs/grant metric. A cell that quiesced
// without a single grant is a failed gate, not a zero metric — silently
// recording 0 would let a regression that starves the schedule pass
// unnoticed.
func perGrant(msgs, grants int64, strict, err error) (int64, float64, error) {
	switch {
	case err != nil:
		return 0, 0, err
	case strict != nil:
		return 0, 0, strict
	case grants == 0:
		return 0, 0, errors.New("harness: gate cell served no grants")
	}
	return msgs, float64(msgs) / float64(grants), nil
}

// throughputRun drives one saturated simulation of any E5 algorithm to
// quiescence and reports the messages delivered and grants served: one
// schedule shape, one delay/CS-time model and one quiescence check, so
// every throughput gate measures the same logical work regardless of
// algorithm. The run is deterministic per (algorithm, ft, p, seed). With
// ft set the open cube re-arms suspicion, loan-return and transfer-ack
// timers on nearly every message, which is exactly the workload where
// dead scheduled timers used to pile up in the event heap.
func throughputRun(o Options, algo string, ft bool, p int) (msgs, grants int64, err error) {
	w, rec, err := simulateAlgorithm(o, algo, p, sim.UniformDelay(delta/2, delta), ft)
	if err != nil {
		return 0, 0, err
	}
	count := 16 << p
	scatter(w, newRng(o.Seed), count, time.Duration(2*count)*delta)
	if !w.RunUntilQuiescent(240 * time.Hour) {
		return 0, 0, fmt.Errorf("harness: %s throughput run (p=%d ft=%v seed=%d) did not quiesce", algo, p, ft, o.Seed)
	}
	if w.Violations() != 0 {
		return 0, 0, fmt.Errorf("harness: %s throughput run had %d violations", algo, w.Violations())
	}
	return rec.Total(), w.Grants(), nil
}
