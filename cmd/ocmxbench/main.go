// Command ocmxbench regenerates the paper's evaluation as text tables:
// worst-case and average message complexity, failure overhead (the
// Section 6 Estelle experiment), search_father cost, and the comparison
// against Raymond and Naimi-Trehel. The experiments, their parameters and
// their -strict predicates are internal/harness's Experiments list; see
// DESIGN.md for the experiment index and EXPERIMENTS.md for recorded
// paper-vs-measured results.
//
// Usage:
//
//	ocmxbench [-exp all|NAME] [-seed N] [-full] [-parallel N] [-strict] [-obs FILE]
//
// NAME is one of the list's names (ocmxbench -h prints them); any other
// value is an error. -full runs every sweep at its paper or acceptance
// scale: E3's 300 failures at N=32 and 200 at N=64, E7 and E10 to N=4096,
// E9 at N=256 with up to 4096 keys, E13 to one million keys at N=256 and
// N=1024.
//
// -strict turns liveness columns into hard gates: any non-zero stuck
// count (E3, E7, E10), STALLED outcome (E9, E13), open-cube violation
// under in-model scenarios, or session-on E11 row that is incomplete or
// application-visibly violated exits non-zero. CI runs the sweeps with it.
//
// -parallel N distributes independent experiment cells — and each E13
// cell's 64 key slices — over N workers (0, the default, uses GOMAXPROCS;
// 1 is sequential). It is purely an execution knob: cells are seeded from
// their coordinates and assembled in sweep order, so stdout is
// byte-identical for every N — only wall-clock changes, reported on stderr.
//
// -obs FILE attaches flight recorders to every keyed simulation (E9 and
// E13's slices), routes E13 stall autopsies to stderr, and writes a
// Prometheus-text metrics snapshot of the run to FILE at exit. Stdout is
// byte-identical with it on or off (CI cmp-gates this). See DESIGN.md §14.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"

	"repro/internal/harness"
	"repro/internal/obs"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its arguments, streams and exit status as values.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ocmxbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	exp := fs.String("exp", "all", "experiment to run: "+harness.Names())
	seed := fs.Int64("seed", 1993, "random seed")
	full := fs.Bool("full", false, "paper-scale parameters (slower)")
	par := fs.Int("parallel", 0, "workers for experiment cells and e13 key slices (0 = GOMAXPROCS, 1 = sequential)")
	strict := fs.Bool("strict", false, "fail on any stuck episode, stalled cell or in-model violation")
	obsPath := fs.String("obs", "", "attach flight recorders and write a Prometheus metrics snapshot to this file at exit")
	if fs.Parse(args) != nil {
		return 2
	}
	fail := func(what string, err error) int {
		fmt.Fprintf(stderr, "ocmxbench: %s: %v\n", what, err)
		return 1
	}
	exps, err := harness.Select(*exp)
	if err != nil {
		return fail("-exp", err)
	}
	if *par <= 0 {
		*par = runtime.GOMAXPROCS(0)
	}
	o := harness.Options{Seed: *seed, Full: *full, Workers: *par}
	// -obs: flight recorders on every keyed simulation, E13 stall
	// autopsies to stderr, and a run-scoped metrics snapshot at exit.
	// Nothing it does may reach stdout.
	if *obsPath != "" {
		o.Metrics, o.FlightDepth, o.Autopsy = obs.NewRegistry(), obs.DefaultFlightDepth, stderr
	}
	for _, e := range exps {
		rep, err := e.Run(o)
		if rep.Table != "" {
			fmt.Fprintln(stdout, rep.Table)
		}
		fmt.Fprint(stderr, rep.Note)
		if err == nil && *strict {
			err = rep.Strict
		}
		if err != nil {
			return fail(e.Name, err)
		}
	}
	if o.Metrics == nil {
		return 0
	}
	f, err := os.Create(*obsPath)
	if err != nil {
		return fail("obs", err)
	}
	err = o.Metrics.WriteProm(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fail("obs", err)
	}
	return 0
}
