package harness

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/obs"
)

// Report is what one experiment hands the CLI.
type Report struct {
	// Table is the stdout artifact, byte-identical for every execution
	// knob of Options.
	Table string
	// Strict is the first row -strict fails on, nil when every liveness
	// and safety gate of the table holds.
	Strict error
	// Note is what the experiment says on stderr: wall-clock readings,
	// which no one may compare.
	Note string
}

// Experiment is one table of the evaluation.
type Experiment struct {
	// Name is the -exp value that selects it.
	Name string
	run  func(o Options) (Report, error)
}

// Run sweeps the experiment at o's scale and counts it in o.Metrics.
func (e Experiment) Run(o Options) (Report, error) {
	start := obs.StartStopwatch()
	rep, err := e.run(o)
	if o.Metrics != nil {
		o.Metrics.Counter("ocmx_experiments_total",
			"Experiments executed this run.", "exp", e.Name).Inc()
		o.Metrics.Gauge("ocmx_experiment_seconds",
			"Wall-clock duration of the experiment.", "exp", e.Name).Set(start.Elapsed().Seconds())
	}
	return rep, err
}

// report renders a finished sweep: its table, and the first row its
// -strict predicate (nil: the table gates nothing) fails on.
func report[R any](rows []R, err error, format func([]R) string, strict func(R) error) (Report, error) {
	if err != nil {
		return Report{}, err
	}
	rep := Report{Table: format(rows)}
	for i := 0; strict != nil && rep.Strict == nil && i < len(rows); i++ {
		rep.Strict = strict(rows[i])
	}
	return rep, nil
}

// orders returns the cube orders lo..hi, or lo..fullHi at the -full scale.
func orders(o Options, lo, hi, fullHi int) []int {
	if o.Full {
		hi = fullHi
	}
	ps := make([]int, 0, hi-lo+1)
	for p := lo; p <= hi; p++ {
		ps = append(ps, p)
	}
	return ps
}

// pick returns def, or full at the -full scale.
func pick[T any](o Options, def, full T) T {
	if o.Full {
		return full
	}
	return def
}

// Experiments lists the evaluation in the order `-exp all` prints it (E6
// before E5, as it always has). Each entry is the whole definition of its
// table: parameters at the default and the -full scale, the sweep, the
// rendering and the -strict predicate.
func Experiments() []Experiment {
	return []Experiment{
		{"e1", func(o Options) (Report, error) {
			rows, err := E1WorstCase(o, orders(o, 1, 6, 8), 40)
			return report(rows, err, formatE1, nil)
		}},
		{"e2", func(o Options) (Report, error) {
			rows, err := E2Average(o, orders(o, 1, 6, 8))
			return report(rows, err, formatE2, nil)
		}},
		// -full is the paper's scale: 300 failures at N=32, 200 at N=64.
		{"e3", func(o Options) (Report, error) {
			rows, err := E3Overheads(o, pick(o,
				[]E3Size{{4, 60}, {5, 100}, {6, 60}},
				[]E3Size{{4, 300}, {5, 300}, {6, 200}, {7, 100}}))
			return report(rows, err, formatE3, E3Row.strict)
		}},
		{"e4", func(o Options) (Report, error) {
			rows, err := E4SearchCost(o, orders(o, 3, 6, 7), pick(o, 40, 120))
			return report(rows, err, formatE4, nil)
		}},
		{"e6", func(o Options) (Report, error) {
			rows, err := E6Adaptivity(o, orders(o, 4, 6, 7))
			return report(rows, err, formatE6, nil)
		}},
		{"e5", func(o Options) (Report, error) {
			rows, err := E5Comparison(o, orders(o, 3, 5, 6), []string{LoadSpread, LoadBurst, LoadHotspot})
			return report(rows, err, formatE5, nil)
		}},
		{"e7", func(o Options) (Report, error) {
			rows, err := E7LargeP(o, orders(o, 8, 10, 12))
			return report(rows, err, formatE7, E7Row.strict)
		}},
		{"e8", func(o Options) (Report, error) {
			rows, err := E8FaultComparison(o, pick(o, 4, 5))
			return report(rows, err, formatE8, nil)
		}},
		// -full is the acceptance-scale sweep: N=256 × up to 4096 keys.
		{"e9", func(o Options) (Report, error) {
			rows, err := E9Lockspace(o, pick(o, 4, 8), pick(o, []int{1, 16, 256}, []int{1, 16, 256, 4096}))
			return report(rows, err, formatE9, E9Row.strict)
		}},
		{"e10", func(o Options) (Report, error) {
			rows, err := E10SteadyChurn(o, orders(o, 8, 10, 12))
			return report(rows, err, formatE10, E10Row.strict)
		}},
		{"e11", func(o Options) (Report, error) {
			rows, err := E11LossyRecovery(o, pick(o, 4, 5))
			rep, err := report(rows, err, formatE11, E11Row.strict)
			if err != nil {
				return rep, err
			}
			if o.Metrics != nil {
				e11Export(o.Metrics, rows)
			}
			// The live half: wall-clock lease-reclaim latency on loopback,
			// environment wall time and so never part of the table.
			lat, err := e11LeaseReclaim(100 * time.Millisecond)
			if err != nil {
				return rep, fmt.Errorf("lease reclaim: %w", err)
			}
			rep.Note = fmt.Sprintf("e11: live lease-reclaim latency (ttl=100ms, lossy loopback sessions): %v\n", lat)
			return rep, nil
		}},
		{"e13", func(o Options) (Report, error) {
			start := obs.StartStopwatch()
			rows, err := E13Sharded(o, e13Cells(o.Full))
			rep, err := report(rows, err, formatE13, E13Row.strict)
			if err == nil {
				rep.Note = fmt.Sprintf("e13: swept %d cells in %v\n",
					len(rows), start.Elapsed().Round(time.Millisecond))
			}
			return rep, err
		}},
	}
}

// Select resolves an -exp value: "all" is every experiment, a name is that
// one, and anything else is an error naming the valid values.
func Select(name string) ([]Experiment, error) {
	all := Experiments()
	if name == "all" {
		return all, nil
	}
	for _, e := range all {
		if e.Name == name {
			return []Experiment{e}, nil
		}
	}
	return nil, fmt.Errorf("no experiment %q: want one of %s", name, Names())
}

// Names lists the -exp values, "all" first.
func Names() string {
	names := []string{"all"}
	for _, e := range Experiments() {
		names = append(names, e.Name)
	}
	return strings.Join(names, ", ")
}
