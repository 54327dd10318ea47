// Command ocmxchaos is the standing chaos rig for the keyed lock
// service (EXPERIMENTS.md §E12).
//
// Two modes:
//
//	ocmxchaos local [-p 3] [-duration 60s] [-seed 1] [-strict] [-v]
//	                [-metrics host:port] [-autopsy FILE]
//
// runs the whole cluster in-process: goroutine nodes over an in-memory
// session mesh, Zipf-keyed client traffic (64 keys, skew 1.1, two
// clients per node, a 250 ms lease), seeded kills / partitions / drop
// bursts / zombie holds, and the full Antithesis-style property suite
// (internal/props) evaluated inline. Exit status 1 when any always
// assertion fails — or, with -strict, when any sometimes or reachable
// assertion goes unreached. This is the CI chaos-smoke job. -metrics
// serves the run's registry. -autopsy FILE is chaos.Config.Autopsy, which
// implies a flight recorder on every member (obs.DefaultFlightDepth
// events per instance): a failed verdict's autopsy carries its lineage.
// Without -autopsy no recorder runs.
//
//	ocmxchaos node -self 0 -addrs host0:7000,host1:7000,... -dir /data
//	               [-metrics host:port]
//
// runs ONE cluster member as a real OS process over TCP: a lockspace
// node (250 ms lease, 50 ms delay bound) plus its own client loop over
// 64 Zipf keys, emitting one JSON event per line on stdout. The -dir directory holds stable.jsonl (append-only,
// torn-tail tolerant): the node's §5 stable storage and, beside it, its
// session boot (lockspace.Start's life record), so the process is
// SIGKILL-able: a restart with the same -dir comes back with a higher
// boot (peers reset their dedup windows) and rejoins through Section 5
// recovery instead of trusting cluster-birth initial conditions. A -dir
// written before the boot moved into stable.jsonl must start empty.
// docker-compose.yml wires 1<<P such nodes with restart: always — kill
// containers at will.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/chaos"
	"repro/internal/obs"
	"repro/internal/props"
)

func main() { os.Exit(run(os.Args[1:], os.Stderr)) }

// run is main with its arguments, error stream and exit status as
// values: 2 for a bad mode, 1 for a failed run, 0 for a passed run or a
// -h (the flag set prints its own defaults).
func run(args []string, stderr io.Writer) int {
	usage := func() {
		fmt.Fprint(stderr, `usage:
  ocmxchaos local [flags]   in-process chaos run with the property suite
  ocmxchaos node  [flags]   one cluster member as an OS process over TCP
Run "ocmxchaos <mode> -h" for mode flags.
`)
	}
	if len(args) == 0 {
		usage()
		return 2
	}
	var err error
	switch args[0] {
	case "local":
		err = runLocal(args[1:])
	case "node":
		err = runNode(args[1:])
	case "-h", "-help", "--help", "help":
		usage()
		return 0
	default:
		fmt.Fprintf(stderr, "ocmxchaos: unknown mode %q\n", args[0])
		usage()
		return 2
	}
	if err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintf(stderr, "ocmxchaos: %v\n", err)
		return 1
	}
	return 0
}

func runLocal(args []string) error {
	fs := newFlagSet("local")
	p := fs.Int("p", 3, "cube order: the cluster runs 1<<p nodes")
	duration := fs.Duration("duration", 60*time.Second, "traffic phase length")
	seed := fs.Int64("seed", 1, "schedule seed (fault plan, keys, pacing)")
	strict := fs.Bool("strict", false, "unreached coverage fails the run (CI gate)")
	verbose := fs.Bool("v", false, "log fault injections as they happen")
	metricsAddr := fs.String("metrics", "", "serve /metrics and /debug/pprof on this address during the run")
	autopsyPath := fs.String("autopsy", "", "write a JSONL autopsy here when the verdict fails")
	if err := fs.Parse(args); err != nil {
		return err
	}

	cfg := chaos.Config{P: *p, Seed: *seed, Duration: *duration, Strict: *strict}
	if *verbose {
		cfg.Log = func(format string, a ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", a...)
		}
	}
	if *metricsAddr != "" {
		cfg.Metrics = obs.NewRegistry()
		srv, addr, err := obs.Serve(*metricsAddr, cfg.Metrics)
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "ocmxchaos: serving /metrics and /debug/pprof/ on http://%s\n", addr)
	}
	if *autopsyPath != "" {
		f, err := os.Create(*autopsyPath)
		if err != nil {
			return err
		}
		defer f.Close()
		cfg.Autopsy = f
	}
	res, err := chaos.Run(cfg)
	if err != nil {
		return err
	}
	fmt.Println(props.Format(res.Report))
	fmt.Printf("run: N=%d seed=%d wall=%v grants=%d reclaims=%d (max %v) fenced_out=%d kills=%d partitions=%d coverage=%.0f%%\n",
		1<<*p, *seed, res.Wall.Round(time.Millisecond), res.Totals.Grants,
		res.Totals.Reclaims, res.Totals.MaxReclaim.Round(time.Millisecond),
		res.Totals.FencedOut, res.Kills, res.Partitions, 100*res.Coverage)
	return res.Err
}
