// Command ocmxvet is the repository's invariant checker: a vet-style
// multichecker running the internal/lint analyzer suite (determinism,
// mapiter, arenaretain, nilsafe, looptimer, heldblock) over the named
// packages; the stock `go vet` passes are run on their own. It exits
// nonzero on any finding, which makes it a tier-1 CI gate: the
// code-shape contracts the runtime tests and byte-identity cmp gates
// verify only after the fact — replayable executions, arena lifetimes,
// nil-guarded observability hooks — fail here at the line that broke
// them. Invariants a test can read, such as the struct layout pins, are
// tests instead.
//
// Usage:
//
//	go run ./cmd/ocmxvet [packages]
//
// Packages default to ./... . No annotation silences a finding; a
// malformed or unknown //ocmxvet: directive is itself one. See DESIGN.md
// §15 for the analyzer catalog and the two file pragmas.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/lint"
)

func main() {
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: ocmxvet [packages]\n")
	}
	flag.Parse()
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

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
		os.Exit(1)
	}
}
