// Command ocmxbench regenerates the paper's evaluation as text tables:
// worst-case and average message complexity, failure overhead (the
// Section 6 Estelle experiment), search_father cost, and the comparison
// against Raymond and Naimi-Trehel. See DESIGN.md for the experiment
// index and EXPERIMENTS.md for recorded paper-vs-measured results.
//
// Usage:
//
//	ocmxbench [-exp all|e1|e2|e3|e4|e5|e6|e7|e8|e9|e10|e11|e13] [-seed N] [-full] [-parallel N] [-shards N] [-strict] [-json LABEL] [-progress] [-obs FILE]
//
// -full runs E3 at the paper's scale (300 failures at N=32, 200 at N=64)
// and extends the size sweeps; for E7 it extends the large-P sweep to
// its full P=8..12 range (N=4096), for E9 it runs the lockspace at
// N=256 with the instance sweep extended to 4096 keys, for E10 it
// extends the steady-state churn sweep to N=4096, and for E13 it runs
// the sharded lockspace to its acceptance scale: one million keys at
// N=256 and N=1024.
//
// -strict turns liveness columns into hard gates: any non-zero stuck
// count (E3, E7, E10), STALLED outcome (E9) or open-cube violation
// under in-model scenarios exits non-zero. CI runs the smoke sweeps
// with it.
//
// -parallel N distributes independent experiment cells over N workers
// (0, the default, uses GOMAXPROCS; 1 forces the sequential sweep). The
// tables are byte-identical for every N: cells are seeded from their
// coordinates and assembled in sweep order.
//
// -shards N spreads each E13 cell's fixed 64-slice grid over N shard
// workers (0, the default, uses GOMAXPROCS). Like -parallel it is purely
// an execution knob: the E13 table is byte-identical for every N — only
// wall-clock changes, reported on stderr so stdout stays diffable.
//
// -json LABEL measures the fixed performance suite instead of printing
// tables and writes BENCH_LABEL.json (events/sec, ns/op, allocs/op and a
// protocol metric per experiment), the artifact used to track engine
// performance across PRs. Perf suites ignore -parallel and always sweep
// sequentially so two BENCH files stay comparable.
//
// -progress reports per-shard wall-clock progress (E13) on stderr; it is
// off by default so quiet runs stay quiet. -obs FILE attaches flight
// recorders to every simulated network, routes E13 stall autopsies to
// stderr, and writes a Prometheus-text metrics snapshot of the run to
// FILE at exit. Both are execution knobs: stdout is byte-identical with
// them on or off (CI cmp-gates this), and -json ignores them — the perf
// suite measures the uninstrumented engine. See DESIGN.md §14.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"time"

	"repro/internal/harness"
	"repro/internal/obs"
)

func main() {
	exp := flag.String("exp", "all", "experiment to run: all, e1, e2, e3, e4, e5, e6, e7, e8, e9, e10, e11, e13")
	seed := flag.Int64("seed", 1993, "random seed")
	full := flag.Bool("full", false, "paper-scale parameters (slower)")
	par := flag.Int("parallel", 0, "experiment-cell workers (0 = GOMAXPROCS, 1 = sequential)")
	shards := flag.Int("shards", 0, "shard workers per e13 cell (0 = GOMAXPROCS); never affects results")
	strict := flag.Bool("strict", false, "fail on any stuck episode, stalled cell or in-model violation")
	jsonLabel := flag.String("json", "", "measure the perf suite and write BENCH_<label>.json")
	progress := flag.Bool("progress", false, "report per-shard wall-clock progress on stderr (e13)")
	obsPath := flag.String("obs", "", "attach flight recorders and write a Prometheus metrics snapshot to this file at exit")
	flag.Parse()

	shardN := *shards
	if shardN <= 0 {
		shardN = runtime.GOMAXPROCS(0)
	}

	if *jsonLabel != "" {
		// Perf suites always sweep sequentially: BENCH files exist to be
		// divided against each other across PRs, and worker-pool speedup
		// or scheduler jitter in ns_per_op would drown the engine signal.
		// (The e13 shard1/shard8 pair is the deliberate exception — its
		// entries fix their own shard counts to measure that speedup.)
		harness.SetParallelism(1)
		if err := benchJSON(*jsonLabel, *seed, shardN); err != nil {
			fmt.Fprintf(os.Stderr, "ocmxbench: bench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	harness.SetParallelism(*par)

	// -obs is a table-mode knob: flight recorders on every simulated
	// network, E13 stall autopsies to stderr, and a run-scoped metrics
	// snapshot at exit. Nothing it does may reach stdout.
	var obsReg *obs.Registry
	if *obsPath != "" {
		obsReg = obs.NewRegistry()
		harness.SetObs(obs.DefaultFlightDepth, os.Stderr)
	}

	run := func(name string, fn func() error) {
		if *exp != "all" && *exp != name {
			return
		}
		start := time.Now()
		err := fn()
		if obsReg != nil {
			obsReg.Counter("ocmx_experiments_total",
				"Experiments executed this run.", "exp", name).Inc()
			obsReg.Gauge("ocmx_experiment_seconds",
				"Wall-clock duration of the experiment.", "exp", name).Set(time.Since(start).Seconds())
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "ocmxbench: %s: %v\n", name, err)
			os.Exit(1)
		}
	}

	sizes := []int{1, 2, 3, 4, 5, 6}
	if *full {
		sizes = append(sizes, 7, 8)
	}

	run("e1", func() error {
		rows, err := harness.E1WorstCase(sizes, 40, *seed)
		if err != nil {
			return err
		}
		fmt.Println(harness.FormatE1(rows))
		return nil
	})

	run("e2", func() error {
		rows, err := harness.E2Average(sizes, *seed)
		if err != nil {
			return err
		}
		fmt.Println(harness.FormatE2(rows))
		return nil
	})

	run("e3", func() error {
		cfgs := []harness.E3Config{{P: 4, Failures: 60}, {P: 5, Failures: 100}, {P: 6, Failures: 60}}
		if *full {
			cfgs = []harness.E3Config{{P: 4, Failures: 300}, {P: 5, Failures: 300}, {P: 6, Failures: 200}, {P: 7, Failures: 100}}
		}
		// Interleave the safe and paper-mode rows per size, as the table
		// has always been laid out.
		cells := make([]harness.E3Config, 0, 2*len(cfgs))
		for _, c := range cfgs {
			cells = append(cells, c, harness.E3Config{P: c.P, Failures: c.Failures, PaperMode: true})
		}
		rows, err := harness.E3Sweep(cells, *seed)
		if err != nil {
			return err
		}
		fmt.Println(harness.FormatE3(rows))
		if *strict {
			for _, r := range rows {
				if r.Stuck != 0 {
					return fmt.Errorf("strict: e3 N=%d reported %d stuck episodes", r.N, r.Stuck)
				}
				if !r.PaperMode && r.Violations != 0 {
					// Paper mode (single-sweep ablation) is known racy.
					return fmt.Errorf("strict: e3 N=%d reported %d violations", r.N, r.Violations)
				}
			}
		}
		return nil
	})

	run("e4", func() error {
		trials := 40
		if *full {
			trials = 120
		}
		ps := []int{3, 4, 5, 6}
		if *full {
			ps = append(ps, 7)
		}
		rows, err := harness.E4SearchCost(ps, trials, *seed)
		if err != nil {
			return err
		}
		fmt.Println(harness.FormatE4(rows))
		return nil
	})

	run("e6", func() error {
		ps := []int{4, 5, 6}
		if *full {
			ps = append(ps, 7)
		}
		rows, err := harness.E6Adaptivity(ps, *seed)
		if err != nil {
			return err
		}
		fmt.Println(harness.FormatE6(rows))
		return nil
	})

	run("e5", func() error {
		ps := []int{3, 4, 5}
		if *full {
			ps = append(ps, 6)
		}
		rows, err := harness.E5Comparison(ps,
			[]string{harness.LoadSpread, harness.LoadBurst, harness.LoadHotspot}, *seed)
		if err != nil {
			return err
		}
		fmt.Println(harness.FormatE5(rows))
		return nil
	})

	run("e7", func() error {
		ps := []int{8, 9, 10}
		if *full {
			ps = append(ps, 11, 12)
		}
		rows, err := harness.E7LargeP(ps, *seed)
		if err != nil {
			return err
		}
		fmt.Println(harness.FormatE7(rows))
		if *strict {
			for _, r := range rows {
				if r.Stuck != 0 || r.Violations != 0 {
					return fmt.Errorf("strict: e7 N=%d stuck=%d violations=%d", r.N, r.Stuck, r.Violations)
				}
			}
		}
		return nil
	})

	run("e8", func() error {
		p := 4
		if *full {
			p = 5
		}
		rows, err := harness.E8FaultComparison(p, *seed)
		if err != nil {
			return err
		}
		fmt.Println(harness.FormatE8(rows))
		return nil
	})

	run("e9", func() error {
		p := 4
		if *full {
			p = 8 // N=256 × up to 4096 keys: the acceptance-scale sweep
		}
		rows, err := harness.E9Lockspace(p, harness.E9KeyCounts(*full), *seed)
		if err != nil {
			return err
		}
		fmt.Println(harness.FormatE9(rows))
		if *strict {
			for _, r := range rows {
				if !r.Completed || r.Violations != 0 {
					return fmt.Errorf("strict: e9 k=%d/%s completed=%v violations=%d",
						r.Keys, r.Skew, r.Completed, r.Violations)
				}
			}
		}
		return nil
	})

	run("e10", func() error {
		ps := []int{8, 9, 10}
		if *full {
			ps = append(ps, 11, 12)
		}
		rows, err := harness.E10SteadyChurn(ps, *seed)
		if err != nil {
			return err
		}
		fmt.Println(harness.FormatE10(rows))
		if *strict {
			for _, r := range rows {
				if r.Stuck != 0 || r.Violations != 0 {
					return fmt.Errorf("strict: e10 N=%d stuck=%d violations=%d", r.N, r.Stuck, r.Violations)
				}
			}
		}
		return nil
	})

	run("e11", func() error {
		p := 4
		if *full {
			p = 5
		}
		rows, err := harness.E11LossyRecovery(p, *seed)
		if err != nil {
			return err
		}
		fmt.Println(harness.FormatE11(rows))
		if obsReg != nil {
			// Where the token acknowledgments went: on the wire as
			// token-ack messages without sessions, inside the sender's
			// session as receipts with them.
			for _, r := range rows {
				labels := []string{"loss", strconv.FormatFloat(r.Loss, 'g', -1, 64),
					"crash", strconv.FormatBool(r.Crash), "session", strconv.FormatBool(r.Session)}
				obsReg.Counter("ocmx_e11_token_acks_total",
					"Token-ack messages put on the simulated wire, per E11 cell.", labels...).Add(r.TokenAcks)
				obsReg.Counter("ocmx_e11_session_receipts_total",
					"Token acknowledgments the sessions gave their own nodes, per E11 cell.", labels...).Add(r.Receipts)
			}
		}
		if *strict {
			for _, r := range rows {
				// The headline gate: sessions + fencing leave no
				// application-visible violation and every run completes.
				if r.Session && (!r.Completed || r.Visible != 0) {
					return fmt.Errorf("strict: e11 loss=%g crash=%v session=on completed=%v visible=%d",
						r.Loss, r.Crash, r.Completed, r.Visible)
				}
			}
		}
		// The live half: wall-clock lease-reclaim latency on loopback.
		// Stderr, not stdout — the latency is environment wall time, and
		// stdout must stay byte-identical across runs and -parallel
		// settings (CI compares them).
		lat, err := harness.E11LeaseReclaim(100 * time.Millisecond)
		if err != nil {
			return fmt.Errorf("lease reclaim: %w", err)
		}
		fmt.Fprintf(os.Stderr, "e11: live lease-reclaim latency (ttl=100ms, lossy loopback sessions): %v\n", lat)
		return nil
	})

	run("e13", func() error {
		start := time.Now()
		// Shard progress is opt-in: quiet runs stay quiet, and with -obs
		// the line/byte volume of the reporting is itself metered.
		var progressW io.Writer
		if *progress {
			progressW = obs.NewProgress(os.Stderr, obsReg)
		}
		rows, err := harness.E13Sharded(harness.E13Cells(*full), *seed, shardN, progressW)
		if err != nil {
			return err
		}
		fmt.Println(harness.FormatE13(rows))
		// Wall-clock and shard count go to stderr only: stdout must stay
		// byte-identical across -shards settings (CI diffs it).
		fmt.Fprintf(os.Stderr, "e13: swept %d cells with %d shard workers in %v\n",
			len(rows), shardN, time.Since(start).Round(time.Millisecond))
		if *strict {
			for _, r := range rows {
				if r.Stalled != 0 || r.Violations != 0 {
					return fmt.Errorf("strict: e13 N=%d k=%d/%s stalled=%d violations=%d",
						r.N, r.Keys, r.Skew, r.Stalled, r.Violations)
				}
			}
		}
		return nil
	})

	if obsReg != nil {
		f, err := os.Create(*obsPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ocmxbench: obs: %v\n", err)
			os.Exit(1)
		}
		werr := obsReg.WriteProm(f)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			fmt.Fprintf(os.Stderr, "ocmxbench: obs: %v\n", werr)
			os.Exit(1)
		}
	}
}
