package harness

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
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

// TestGoldenTables pins the eight tables no golden covered, at the CLI
// defaults and seed 1993: each file is the stdout of `ocmxbench -exp <name>`
// (the table and the blank line after it).
func TestGoldenTables(t *testing.T) {
	const seed = 1993
	sizes := []int{1, 2, 3, 4, 5, 6}
	for _, e := range []struct {
		name string
		run  func() (string, error)
	}{
		{"e1", func() (string, error) {
			rows, err := E1WorstCase(sizes, 40, seed)
			return FormatE1(rows), err
		}},
		{"e2", func() (string, error) {
			rows, err := E2Average(sizes, seed)
			return FormatE2(rows), err
		}},
		{"e3", func() (string, error) {
			var cells []E3Config
			for _, c := range []E3Config{{P: 4, Failures: 60}, {P: 5, Failures: 100}, {P: 6, Failures: 60}} {
				cells = append(cells, c, E3Config{P: c.P, Failures: c.Failures, PaperMode: true})
			}
			rows, err := E3Sweep(cells, seed)
			return FormatE3(rows), err
		}},
		{"e4", func() (string, error) {
			rows, err := E4SearchCost([]int{3, 4, 5, 6}, 40, seed)
			return FormatE4(rows), err
		}},
		{"e7", func() (string, error) {
			rows, err := E7LargeP([]int{8, 9, 10}, seed)
			return FormatE7(rows), err
		}},
		{"e8", func() (string, error) {
			rows, err := E8FaultComparison(4, seed)
			return FormatE8(rows), err
		}},
		{"e10", func() (string, error) {
			rows, err := E10SteadyChurn([]int{8, 9, 10}, seed)
			return FormatE10(rows), err
		}},
		{"e11", func() (string, error) {
			rows, err := E11LossyRecovery(4, seed)
			return FormatE11(rows), err
		}},
	} {
		t.Run(e.name, func(t *testing.T) {
			table, err := e.run()
			if err != nil {
				t.Fatal(err)
			}
			checkGolden(t, e.name+"_seed1993", table+"\n")
		})
	}
}

// TestGateMetrics pins the protocol metric of every deterministic perf
// gate — the msgs_metric column of `ocmxbench -json` — with enough digits
// to be exact.
func TestGateMetrics(t *testing.T) {
	const seed = 1993
	perGrant := func(msgs, grants int64, err error) (int64, float64, error) {
		if err != nil {
			return 0, 0, err
		}
		if grants == 0 {
			return 0, 0, fmt.Errorf("throughput run served no grants")
		}
		return msgs, float64(msgs) / float64(grants), nil
	}
	e13Cell := E13Cell{P: 4, Keys: 256, Skew: "zipf"}
	var b strings.Builder
	for _, g := range []struct {
		name, unit string
		run        func() (int64, float64, error)
	}{
		{"engine_throughput", "msgs/grant", func() (int64, float64, error) { return perGrant(EngineThroughput(6, false, seed)) }},
		{"engine_throughput_ft", "msgs/grant", func() (int64, float64, error) { return perGrant(EngineThroughput(6, true, seed)) }},
		{"e1_n32", "worst-msgs/request", func() (int64, float64, error) {
			rows, err := E1WorstCase([]int{5}, 10, seed)
			if err != nil {
				return 0, 0, err
			}
			return 0, float64(rows[0].MaxMeasured), nil
		}},
		{"e2_n128", "avg-msgs/request", func() (int64, float64, error) {
			rows, err := E2Average([]int{7}, seed)
			if err != nil {
				return 0, 0, err
			}
			return 0, rows[0].Measured, nil
		}},
		{"e3_n32", "repair-msgs/failure", func() (int64, float64, error) {
			row, err := E3FailureOverhead(5, 25, seed)
			return 0, row.RepairPerFail, err
		}},
		{"e4_n32", "tested-nodes/search", func() (int64, float64, error) {
			rows, err := E4SearchCost([]int{5}, 15, seed)
			if err != nil {
				return 0, 0, err
			}
			return 0, rows[0].MeanReconnect, nil
		}},
		{"e5_n16", "open-cube-msgs/CS", func() (int64, float64, error) {
			rows, err := E5Comparison([]int{4}, []string{LoadSpread}, seed)
			if err != nil {
				return 0, 0, err
			}
			for _, r := range rows {
				if r.Algorithm == "open-cube" {
					return 0, r.MsgsPerCS, nil
				}
			}
			return 0, 0, fmt.Errorf("e5: no open-cube row")
		}},
		{"e6_n32", "open-cube-msgs/CS", func() (int64, float64, error) {
			rows, err := E6Adaptivity([]int{5}, seed)
			if err != nil {
				return 0, 0, err
			}
			for _, r := range rows {
				if r.Algorithm == "open-cube" {
					return 0, r.MsgsPerCS, nil
				}
			}
			return 0, 0, fmt.Errorf("e6: no open-cube row")
		}},
		{"e7_n256", "ft-msgs/CS", func() (int64, float64, error) {
			rows, err := E7LargeP([]int{8}, seed)
			if err != nil {
				return 0, 0, err
			}
			return 0, rows[0].FTMsgsPerCS, nil
		}},
		{"baseline_raymond", "msgs/grant", func() (int64, float64, error) {
			return perGrant(BaselineThroughput("classic-raymond", 6, seed))
		}},
		{"baseline_naimi_trehel", "msgs/grant", func() (int64, float64, error) {
			return perGrant(BaselineThroughput("classic-naimi-trehel", 6, seed))
		}},
		{"e9_n16_k256", "msgs/grant", func() (int64, float64, error) { return perGrant(E9Throughput(4, 256, "zipf", seed)) }},
		{"e9_n16_k4096", "msgs/grant", func() (int64, float64, error) { return perGrant(E9Throughput(4, 4096, "zipf", seed)) }},
		{"e10_n256", "msgs/grant", func() (int64, float64, error) { return perGrant(E10Throughput(8, seed)) }},
		{"e11_n16", "msgs/grant", func() (int64, float64, error) { return perGrant(E11Throughput(4, seed)) }},
		{"e8_n16", "grants-after-crash", func() (int64, float64, error) {
			rows, err := E8FaultComparison(4, seed)
			if err != nil {
				return 0, 0, err
			}
			for _, r := range rows {
				if r.Algorithm == "open-cube" && r.Scenario == ScenarioCrashInCS {
					return 0, float64(r.Grants), nil
				}
			}
			return 0, 0, fmt.Errorf("e8: no open-cube crash row")
		}},
		{"e13_n16_k256_shard1", "msgs/grant", func() (int64, float64, error) { return perGrant(E13Throughput(e13Cell, 1, seed)) }},
		{"e13_n16_k256_shard8", "msgs/grant", func() (int64, float64, error) { return perGrant(E13Throughput(e13Cell, 8, seed)) }},
	} {
		events, metric, err := g.run()
		if err != nil {
			t.Fatalf("%s: %v", g.name, err)
		}
		fmt.Fprintf(&b, "%s %d %s %s\n", g.name, events, strconv.FormatFloat(metric, 'g', -1, 64), g.unit)
	}
	checkGolden(t, "gates_seed1993", b.String())
}
