package harness

import (
	"strings"
	"testing"
)

// renderAll runs a small instance of every experiment and concatenates
// the formatted tables — the exact artifact cmd/ocmxbench prints.
func renderAll(t *testing.T, workers int) string {
	t.Helper()
	o := Options{Seed: 42, Workers: workers}
	var b strings.Builder
	e1, err := E1WorstCase(o, []int{2, 3}, 6)
	if err != nil {
		t.Fatalf("E1: %v", err)
	}
	b.WriteString(formatE1(e1))
	e2, err := E2Average(o, []int{2, 3})
	if err != nil {
		t.Fatalf("E2: %v", err)
	}
	b.WriteString(formatE2(e2))
	e3, err := E3Overheads(o, []E3Size{{P: 3, Failures: 5}})
	if err != nil {
		t.Fatalf("E3: %v", err)
	}
	b.WriteString(formatE3(e3))
	e4, err := E4SearchCost(o, []int{3}, 6)
	if err != nil {
		t.Fatalf("E4: %v", err)
	}
	b.WriteString(formatE4(e4))
	e5, err := E5Comparison(o, []int{3}, []string{LoadSpread, LoadBurst})
	if err != nil {
		t.Fatalf("E5: %v", err)
	}
	b.WriteString(formatE5(e5))
	e6, err := E6Adaptivity(o, []int{3})
	if err != nil {
		t.Fatalf("E6: %v", err)
	}
	b.WriteString(formatE6(e6))
	e7, err := E7LargeP(o, []int{4, 5})
	if err != nil {
		t.Fatalf("E7: %v", err)
	}
	b.WriteString(formatE7(e7))
	e9, err := E9Lockspace(o, 3, []int{1, 16})
	if err != nil {
		t.Fatalf("E9: %v", err)
	}
	b.WriteString(formatE9(e9))
	e10, err := E10SteadyChurn(o, []int{4, 5})
	if err != nil {
		t.Fatalf("E10: %v", err)
	}
	b.WriteString(formatE10(e10))
	return b.String()
}

// TestParallelMatchesSequential pins the harness parallelization
// contract: every experiment table is byte-identical whether the cells
// run on one worker or many, because cell seeding and result assembly
// are independent of scheduling.
func TestParallelMatchesSequential(t *testing.T) {
	seq, par := renderAll(t, 1), renderAll(t, 8)
	if seq != par {
		t.Errorf("parallel sweep diverged from sequential:\n--- sequential ---\n%s\n--- parallel ---\n%s", seq, par)
	}
	if !strings.Contains(seq, "E1 —") || !strings.Contains(seq, "E7 —") ||
		!strings.Contains(seq, "E9 —") || !strings.Contains(seq, "E10 —") {
		t.Errorf("rendered tables look truncated:\n%s", seq)
	}
}

// gateNamed returns the gate cell of that name.
func gateNamed(t *testing.T, name string) Gate {
	t.Helper()
	for _, g := range Gates() {
		if g.Name == name {
			return g
		}
	}
	t.Fatalf("no gate %q", name)
	return Gate{}
}

// TestEngineThroughputDeterministic pins the engine gates: identical
// seeds must process identical logical work, and some.
func TestEngineThroughputDeterministic(t *testing.T) {
	for _, name := range []string{"engine_throughput", "engine_throughput_ft"} {
		g := gateNamed(t, name)
		e1, m1, err := g.Run(Options{Seed: 7})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		e2, m2, err := g.Run(Options{Seed: 7})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if e1 != e2 || m1 != m2 {
			t.Errorf("%s: replay diverged: (%d,%v) vs (%d,%v)", name, e1, m1, e2, m2)
		}
		if e1 == 0 || m1 == 0 {
			t.Errorf("%s: empty run: msgs=%d msgs/grant=%v", name, e1, m1)
		}
	}
}
