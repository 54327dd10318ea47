package harness

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/obs"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/*.golden from the current harness")

// checkGolden compares got with testdata/<name>.golden byte for byte, or
// rewrites the file under -update-golden. Never refresh for a refactor:
// the files are what `ocmxbench` printed before it.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("%s diverged from its golden:\n got:\n%s\nwant:\n%s", name, got, want)
	}
}

// TestGoldenTables pins every table at the CLI defaults and seed 1993:
// each file is the stdout of `ocmxbench -exp <name>` (the table and the
// blank line after it), so the twelve in list order are `-exp all`. The
// files were recorded before the refactors they have outlived — E5 and E6
// on the deleted mutexsim driver's engine, E9 and E13 while the simulated
// multiplexer still stepped its instances itself, the rest before the
// registry existed. Every table is also run with a flight recorder on
// every network, as under `ocmxbench -obs`, against the same file: the
// recorder observes and never changes a byte.
func TestGoldenTables(t *testing.T) {
	for _, e := range Experiments() {
		t.Run(e.Name, func(t *testing.T) {
			for _, depth := range []int{0, obs.DefaultFlightDepth} {
				rep, err := e.Run(Options{Seed: 1993, Workers: 2, FlightDepth: depth})
				if err != nil {
					t.Fatalf("flight depth %d: %v", depth, err)
				}
				if rep.Strict != nil {
					t.Errorf("flight depth %d: -strict would fail: %v", depth, rep.Strict)
				}
				checkGolden(t, e.Name+"_seed1993", rep.Table+"\n")
			}
		})
	}
}

// TestGateMetrics pins the protocol metric of every gate cell — the
// msgs_metric column `ocmxbench -json` used to write — with enough digits
// to be exact, and the events where the cell counts them.
func TestGateMetrics(t *testing.T) {
	var b strings.Builder
	for _, g := range Gates() {
		events, metric, err := g.Run(Options{Seed: 1993})
		if err != nil {
			t.Fatalf("%s: %v", g.Name, err)
		}
		fmt.Fprintf(&b, "%s %d %s %s\n", g.Name, events, strconv.FormatFloat(metric, 'g', -1, 64), g.Unit)
	}
	checkGolden(t, "gates_seed1993", b.String())
}
