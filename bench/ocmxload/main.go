// Command ocmxload is the repository's benchmark: four workloads that time
// the Lock→grant path end to end — two live 8-node clusters (loopback
// SessTCP and the in-memory SessMesh) and two virtual-time simulations
// (the keyed lockspace mux, and a single mutex under loss and crashes) —
// and, in a separate traced run, decompose the same workloads per layer
// through the seams the packages already export. Every reading is reported
// as measured. bench/README.md defines every metric and says why each
// estimator was chosen; BENCHMARK.json at the repository root is rendered
// from the tables in spec.go.
//
//	ocmxload                         every workload, untraced then traced
//	ocmxload -workload sim-keyed     one workload's end-to-end metrics
//	ocmxload -workload sim-keyed -trace 1 -spans FILE
//	                                 its per-layer metrics and span JSONL
//	ocmxload -list                   names, units, bounds, and why
//
// A run checks correctness before it prints anything: a failed check
// exits non-zero with no metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"time"
)

// procs is the GOMAXPROCS every run is pinned to: all load is generated
// from this one process, and the numbers in bench/NOISE.md were taken on
// a 2-core host.
const procs = 2

// runOptions are the parameters of one workload run.
type runOptions struct {
	seed   int64
	window time.Duration // measured window of the untraced run
	traced bool          // per-layer run: taps installed, spans recorded
	spans  string        // traced only: write the span JSONL here
	smoke  bool          // tests only: one segment or repetition, tiny ready state
}

// result is what one workload run reports.
type result struct {
	metrics   map[string]float64
	attempted int64
	failed    int64
	notes     []string // sample counts and other context for the human reader
}

func main() {
	var (
		workload = flag.String("workload", "", "run one workload (default: all, each in its own process)")
		seed     = flag.Int64("seed", 1, "seed of every generated key, node and schedule")
		seconds  = flag.Int("seconds", runSeconds, "measured window in seconds; the benchmark's own value is the default")
		trace    = flag.String("trace", "0", "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
		spans    = flag.String("spans", "", "with -trace 1: write the spans as JSONL to this file")
		doList   = flag.Bool("list", false, "print workloads and metrics with units, bounds and reasons")
		doJSON   = flag.Bool("benchmark-json", false, "print BENCHMARK.json as rendered from the program's tables")
	)
	flag.Parse()
	switch {
	case *doList:
		list(os.Stdout)
		return
	case *doJSON:
		if err := benchmarkJSON(os.Stdout); err != nil {
			fatal(err)
		}
		return
	}
	if *trace != "0" && *trace != "1" {
		fatal(fmt.Errorf("-trace %q: want 0 or 1", *trace))
	}
	if *seconds < 1 {
		fatal(fmt.Errorf("-seconds %d: want at least 1", *seconds))
	}
	if *workload == "" {
		if err := runAll(*seed, *seconds); err != nil {
			fatal(err)
		}
		return
	}
	spec := findWorkload(*workload)
	if spec == nil {
		fatal(fmt.Errorf("unknown workload %q (see -list)", *workload))
	}
	runtime.GOMAXPROCS(procs)
	opt := runOptions{seed: *seed, window: time.Duration(*seconds) * time.Second, traced: *trace == "1", spans: *spans}
	res, err := spec.run(opt)
	if err != nil {
		fatal(fmt.Errorf("%s: %w", spec.Name, err))
	}
	fmt.Printf("# %s seed=%d trace=%s GOMAXPROCS=%d nproc=%d %s\n",
		spec.Name, *seed, *trace, procs, runtime.NumCPU(), runtime.Version())
	for _, n := range res.notes {
		fmt.Printf("# %s\n", n)
	}
	if err := report(spec.Name, opt.traced, res); err != nil {
		fatal(err)
	}
}

// report prints every metric the run measured as "workload/metric value
// unit" and then, as the last line, the driver's JSON object: the
// end-to-end metrics of an untraced run, the per-layer metrics of a traced
// one. An untraced run also measures the lock.* readings, over its longer
// window, and prints them; they are not part of its JSON.
func report(workload string, traced bool, res *result) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: true, Attempted: res.attempted, Failed: res.failed, Metrics: map[string]value{}}
	line := func(m metricSpec, v float64) {
		fmt.Printf("%s/%s %s %s\n", workload, m.Name, strconv.FormatFloat(v, 'g', -1, 64), m.Unit)
	}
	if !traced {
		for _, m := range endToEnd {
			v, ok := res.metrics[m.Name]
			if !ok {
				return fmt.Errorf("%s: end-to-end metric %s was not measured", workload, m.Name)
			}
			line(m, v)
			out.Metrics[m.Name] = value{v, m.Unit}
		}
	}
	for _, m := range perLayer {
		v, ok := res.metrics[m.Name]
		if traced {
			out.Metrics[m.Name] = value{v, m.Unit} // a layer the workload bypasses reads 0
		}
		if traced || ok {
			line(m, v)
		}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// runAll runs every workload untraced and then traced, each in a child
// process of its own so peak_rss_mb belongs to one workload.
func runAll(seed int64, seconds int) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	for _, w := range workloads {
		for _, trace := range []string{"0", "1"} {
			cmd := exec.Command(self, "-workload", w.Name, "-seed", strconv.FormatInt(seed, 10),
				"-seconds", strconv.Itoa(seconds), "-trace", trace)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			if err := cmd.Run(); err != nil {
				return fmt.Errorf("%s -trace %s: %w", w.Name, trace, err)
			}
		}
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ocmxload:", err)
	os.Exit(1)
}
