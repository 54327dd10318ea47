// Command ocmxchaos is the standing chaos rig for the keyed lock
// service (EXPERIMENTS.md §E12).
//
// Two modes:
//
//	ocmxchaos local [-p 3] [-duration 60s] [-seed 1] [-keys 64] [-zipf 1.1]
//	                [-clients 2] [-ttl 250ms] [-kills 3] [-partitions 2]
//	                [-patience 15s] [-strict] [-v]
//	                [-metrics host:port] [-autopsy FILE]
//
// runs the whole cluster in-process: goroutine nodes over an in-memory
// session mesh, Zipf-keyed client traffic, seeded kills / partitions /
// drop bursts / zombie holds, and the full Antithesis-style property
// suite (internal/props) evaluated inline. Exit status 1 when any
// always assertion fails — or, with -strict, when any sometimes or
// reachable assertion goes unreached. This is the CI chaos-smoke job.
//
//	ocmxchaos node -self 0 -addrs host0:7000,host1:7000,... -dir /data
//	               [-ttl 250ms] [-keys 64] [-zipf 1.1] [-hold 2ms] [-seed 1]
//	               [-metrics host:port]
//
// runs ONE cluster member as a real OS process over TCP: a lockspace
// node plus its own Zipf client loop, emitting one JSON event per line
// on stdout. The -dir directory holds stable.jsonl (append-only,
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
	"fmt"
	"os"
	"time"

	"repro/internal/chaos"
	"repro/internal/obs"
	"repro/internal/props"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "local":
		err = runLocal(os.Args[2:])
	case "node":
		err = runNode(os.Args[2:])
	case "-h", "-help", "--help", "help":
		usage()
		return
	default:
		fmt.Fprintf(os.Stderr, "ocmxchaos: unknown mode %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "ocmxchaos: %v\n", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintf(os.Stderr, `usage:
  ocmxchaos local [flags]   in-process chaos run with the property suite
  ocmxchaos node  [flags]   one cluster member as an OS process over TCP
Run "ocmxchaos <mode> -h" for mode flags.
`)
}

func runLocal(args []string) error {
	fs := newFlagSet("local")
	p := fs.Int("p", 3, "cube order: the cluster runs 1<<p nodes")
	duration := fs.Duration("duration", 60*time.Second, "traffic phase length")
	seed := fs.Int64("seed", 1, "schedule seed (fault plan, keys, pacing)")
	keys := fs.Int("keys", 64, "key-space size")
	zipf := fs.Float64("zipf", 1.1, "Zipf skew of key popularity")
	clients := fs.Int("clients", 2, "client goroutines per node")
	ttl := fs.Duration("ttl", 250*time.Millisecond, "lease TTL")
	kills := fs.Int("kills", 3, "minimum kills in the generated plan")
	partitions := fs.Int("partitions", 2, "minimum partitions in the generated plan")
	patience := fs.Duration("patience", 15*time.Second, "per-lock stuck threshold")
	strict := fs.Bool("strict", false, "unreached coverage fails the run (CI gate)")
	verbose := fs.Bool("v", false, "log fault injections as they happen")
	metricsAddr := fs.String("metrics", "", "serve /metrics and /debug/pprof on this address during the run")
	autopsyPath := fs.String("autopsy", "", "write a JSONL autopsy here when the verdict fails")
	if err := fs.Parse(args); err != nil {
		return err
	}

	cfg := chaos.Config{
		P:              *p,
		Seed:           *seed,
		Duration:       *duration,
		Keys:           *keys,
		ZipfS:          *zipf,
		ClientsPerNode: *clients,
		LeaseTTL:       *ttl,
		Kills:          *kills,
		Partitions:     *partitions,
		Patience:       *patience,
		Strict:         *strict,
	}
	if *verbose {
		cfg.Log = func(format string, a ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", a...)
		}
	}
	if *metricsAddr != "" || *autopsyPath != "" {
		cfg.Metrics = obs.NewRegistry()
		cfg.Flight = obs.NewFlight(obs.DefaultFlightDepth)
	}
	if *metricsAddr != "" {
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
