// Command ocmxvet is the repository's invariant checker: a vet-style
// multichecker running the internal/lint analyzer suite (determinism,
// mapiter, wiresize, arenaretain, nilsafe, looptimer, heldblock) plus the stock
// `go vet` passes over the named packages. It exits nonzero on any
// finding, which makes it a tier-1 CI gate: the contracts the runtime
// tests and byte-identity cmp gates verify after the fact — replayable
// executions, the 80-byte wire struct, arena lifetimes, nil-safe
// observability hooks — fail here at the line that broke them.
//
// Usage:
//
//	go run ./cmd/ocmxvet [-vet=false] [packages]
//
// Packages default to ./... . No annotation silences a finding; a
// malformed or unknown //ocmxvet: directive is itself one. See DESIGN.md
// §15 for the analyzer catalog and the two file pragmas.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"

	"repro/internal/lint"
)

func main() {
	vet := flag.Bool("vet", true, "also run the stock `go vet` passes over the same packages")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: ocmxvet [-vet=false] [packages]\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	failed := false
	loader := lint.NewLoader()
	pkgs, err := loader.Load(patterns...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ocmxvet: %v\n", err)
		os.Exit(2)
	}
	findings := 0
	for _, pkg := range pkgs {
		diags, err := lint.Check(pkg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ocmxvet: %v\n", err)
			os.Exit(2)
		}
		for _, d := range diags {
			fmt.Fprintln(os.Stdout, d)
			findings++
		}
	}
	if findings > 0 {
		fmt.Fprintf(os.Stderr, "ocmxvet: %d finding(s)\n", findings)
		failed = true
	}

	if *vet {
		args := append([]string{"vet", "--"}, patterns...)
		cmd := exec.Command("go", args...)
		cmd.Stdout = os.Stdout
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil {
			failed = true
		}
	}
	if failed {
		os.Exit(1)
	}
}
