package harness

import (
	"math"
	"strings"
	"testing"

	"repro/internal/ocube"
	"repro/internal/workload"
)

func TestE2MatchesAlphaRecurrenceExactly(t *testing.T) {
	// The headline analytical reproduction: the measured per-node average
	// on pristine cubes equals αp/2^p exactly, for every cube order.
	rows, err := E2Average(Options{Seed: 7}, []int{1, 2, 3, 4, 5, 6})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if math.Abs(r.Measured-r.AlphaExact) > 1e-9 {
			t.Errorf("N=%d: measured %.6f != exact %.6f", r.N, r.Measured, r.AlphaExact)
		}
		if r.SteadyState <= 0 {
			t.Errorf("N=%d: steady-state average %.3f", r.N, r.SteadyState)
		}
		// The closed form approximates from above for these sizes.
		if r.Approx < r.AlphaExact {
			t.Errorf("N=%d: approx %.4f below exact %.4f", r.N, r.Approx, r.AlphaExact)
		}
	}
	if s := formatE2(rows); !strings.Contains(s, "E2") {
		t.Error("formatE2 missing header")
	}
}

func TestE1WithinStrictBound(t *testing.T) {
	rows, err := E1WorstCase(Options{Seed: 3}, []int{1, 2, 3, 4, 5}, 30)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if err := r.strict(); err != nil {
			t.Error(err)
		}
		// For N ≥ 8 the pristine cube already realizes log2(N)+2 (e.g.
		// paper node 6 on the 8-cube), demonstrating the off-by-one in
		// the paper's worst-case claim.
		if r.N >= 8 && r.MaxMeasured <= int64(r.PaperBound) {
			t.Errorf("N=%d: max %d does not exceed the paper bound %d; expected the log2N+2 case",
				r.N, r.MaxMeasured, r.PaperBound)
		}
	}
	if s := formatE1(rows); !strings.Contains(s, "E1") {
		t.Error("formatE1 missing header")
	}
}

// TestStrictClaims feeds each paper claim that -strict checks a
// fabricated row that breaks it, and the row at the claim's edge, which
// passes.
func TestStrictClaims(t *testing.T) {
	for _, c := range []struct {
		claim string
		edge  error
		bad   error
		want  string
	}{
		{"e1 worst case log2N+2",
			E1Row{N: 64, MaxMeasured: 8, StrictBound: 8}.strict(),
			E1Row{N: 64, MaxMeasured: 9, StrictBound: 8}.strict(),
			"max msgs/request 9 > log2N+2 = 8"},
		{"e2 average is alpha_p over 2^p",
			E2Row{N: 64, Measured: 5.64061, AlphaExact: 5.640625, Approx: 5.75}.strict(),
			E2Row{N: 64, Measured: 5.6400, AlphaExact: 5.640625, Approx: 5.75}.strict(),
			"measured avg 5.6400 != αp/2^p = 5.6406"},
		{"e2 steady state within Lavault",
			E2Row{N: 64, Measured: 5.640625, AlphaExact: 5.640625, Approx: 5.75, SteadyState: 5.75}.strict(),
			E2Row{N: 64, Measured: 5.640625, AlphaExact: 5.640625, Approx: 5.75, SteadyState: 5.7501}.strict(),
			"steady-state avg 5.7501 > ¾log2N+5/4 = 5.7500"},
		{"e7 failure-free within Lavault",
			E7Row{N: 256, FFMsgsPerCS: 7.25, Lavault: 7.25, Log2Sq: 64}.strict(),
			E7Row{N: 256, FFMsgsPerCS: 7.251, Lavault: 7.25, Log2Sq: 64}.strict(),
			"ff msgs/CS 7.251 > ¾log2N+5/4 = 7.2500"},
		{"e7 fault-tolerant within log2 squared N",
			E7Row{N: 256, Lavault: 7.25, FTMsgsPerCS: 64, Log2Sq: 64}.strict(),
			E7Row{N: 256, Lavault: 7.25, FTMsgsPerCS: 64.5, Log2Sq: 64}.strict(),
			"ft msgs/CS 64.500 > log2²N = 64"},
		{"e10 overall within log2 squared N",
			E10Row{N: 256, Requests: 1598, Grants: 1598, OverallMsgs: 64, Log2Sq: 64}.strict(),
			E10Row{N: 256, Requests: 1598, Grants: 1598, OverallMsgs: 64.5, Log2Sq: 64}.strict(),
			"overall msgs/CS 64.500 > log2²N = 64"},
		{"e10 every request served",
			E10Row{N: 256, Requests: 1598, Grants: 1598, Log2Sq: 64}.strict(),
			E10Row{N: 256, Requests: 1598, Grants: 1597, Log2Sq: 64}.strict(),
			"1597 grants for 1598 requests"},
	} {
		t.Run(c.claim, func(t *testing.T) {
			if c.edge != nil {
				t.Errorf("the row at the claim's edge fails: %v", c.edge)
			}
			if c.bad == nil || !strings.Contains(c.bad.Error(), c.want) {
				t.Errorf("the violating row reads %v, want an error containing %q", c.bad, c.want)
			}
		})
	}
}

func TestE3SafeAndOrdered(t *testing.T) {
	row, err := E3FailureOverhead(Options{Seed: 17}, 3, 40, false)
	if err != nil {
		t.Fatal(err)
	}
	if row.Violations != 0 {
		t.Errorf("violations = %d", row.Violations)
	}
	if row.RepairPerFail <= 0 || row.RepairPerFail > 200 {
		t.Errorf("repair/failure = %.2f out of sane range", row.RepairPerFail)
	}
	if row.Grants == 0 {
		t.Error("no grants at all")
	}
	paper, err := E3FailureOverhead(Options{Seed: 17}, 3, 40, true)
	if err != nil {
		t.Fatal(err)
	}
	if paper.RepairPerFail > row.RepairPerFail {
		t.Errorf("paper mode (%.2f) costlier than safe mode (%.2f)",
			paper.RepairPerFail, row.RepairPerFail)
	}
	if s := formatE3([]E3Row{row, paper}); !strings.Contains(s, "single sweep") {
		t.Error("formatE3 missing mode column")
	}
}

func TestE4LogarithmicGrowth(t *testing.T) {
	rows, err := E4SearchCost(Options{Seed: 5}, []int{3, 4, 5}, 25)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range rows {
		if r.MeanReconnect <= 0 {
			t.Errorf("N=%d: no reconnect searches measured", r.N)
		}
		// O(log N): reconnect mean must stay well below the cube size
		// (small cubes legitimately probe a large fraction).
		if r.MeanReconnect > 0.75*float64(r.N) {
			t.Errorf("N=%d: reconnect mean %.2f not logarithmic", r.N, r.MeanReconnect)
		}
		if i > 0 && r.MeanReconnect < rows[i-1].MeanReconnect {
			t.Errorf("reconnect mean not monotone: N=%d %.2f < N=%d %.2f",
				r.N, r.MeanReconnect, rows[i-1].N, rows[i-1].MeanReconnect)
		}
	}
	if s := formatE4(rows); !strings.Contains(s, "E4") {
		t.Error("formatE4 missing header")
	}
}

func TestE5AllAlgorithmsSafeAndLive(t *testing.T) {
	rows, err := E5Comparison(Options{Seed: 23}, []int{3, 4}, []string{LoadSpread, LoadBurst, LoadHotspot})
	if err != nil {
		t.Fatal(err)
	}
	byAlgo := map[string]int{}
	for _, r := range rows {
		byAlgo[r.Algorithm]++
		if r.Violations != 0 {
			t.Errorf("%s N=%d %s: %d violations", r.Algorithm, r.N, r.Load, r.Violations)
		}
		if r.Grants == 0 {
			t.Errorf("%s N=%d %s: no grants", r.Algorithm, r.N, r.Load)
		}
		if r.MsgsPerCS <= 0 || r.MsgsPerCS > 3*float64(r.N) {
			t.Errorf("%s N=%d %s: msgs/CS %.2f out of range", r.Algorithm, r.N, r.Load, r.MsgsPerCS)
		}
	}
	for _, algo := range E5Algorithms {
		if byAlgo[algo] != 6 {
			t.Errorf("algorithm %s measured %d times, want 6", algo, byAlgo[algo])
		}
	}
	if s := formatE5(rows); !strings.Contains(s, "E5") {
		t.Error("formatE5 missing header")
	}
}

func TestE8FaultComparisonShape(t *testing.T) {
	// The experiment's reason to exist: under identical fault injection on
	// the unified engine, the fault-tolerant open cube completes every
	// scenario while the baselines stall after a crash.
	rows, err := E8FaultComparison(Options{Seed: 1993}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(E8Scenarios)*len(E8Algorithms) {
		t.Fatalf("rows = %d, want %d", len(rows), len(E8Scenarios)*len(E8Algorithms))
	}
	for _, r := range rows {
		if r.Grants == 0 {
			t.Errorf("%s/%s: no grants at all", r.Algorithm, r.Scenario)
		}
		openCube := r.Algorithm == "open-cube" || r.Algorithm == "open-cube-fenced"
		if openCube && !r.Completed {
			t.Errorf("%s/%s: stalled", r.Algorithm, r.Scenario)
		}
		if r.Scenario == ScenarioCrashInCS {
			switch r.Algorithm {
			case "open-cube", "open-cube-fenced":
				if r.Regens == 0 {
					t.Error("open-cube/crash-in-cs: token never regenerated")
				}
				if r.Violations != 0 {
					t.Errorf("open-cube/crash-in-cs: %d violations", r.Violations)
				}
			default:
				// The baselines' token dies with the crashed holder: the
				// run must not quiesce and most requests go unserved.
				if r.Completed {
					t.Errorf("%s/crash-in-cs: completed without fault tolerance", r.Algorithm)
				}
				if r.Grants >= int64(r.Requests)/2 {
					t.Errorf("%s/crash-in-cs: %d of %d requests served after holder crash",
						r.Algorithm, r.Grants, r.Requests)
				}
			}
		}
	}
	if s := formatE8(rows); !strings.Contains(s, "E8") || !strings.Contains(s, "STALLED") {
		t.Error("formatE8 missing header or stall marker")
	}
}

func TestE9LockspaceShape(t *testing.T) {
	// The lockspace claim: per-CS message cost is a property of N and the
	// tree, never of how many other instances share the runtime — and
	// per-instance mutual exclusion holds across the whole space even
	// with the hot instance's holder crashed mid-CS.
	rows, err := E9Lockspace(Options{Seed: 1993}, 4, []int{1, 64})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2*len(E9Skews) {
		t.Fatalf("rows = %d, want %d", len(rows), 2*len(E9Skews))
	}
	var anchor float64
	for _, r := range rows {
		if !r.Completed {
			t.Errorf("k=%d/%s: stalled", r.Keys, r.Skew)
		}
		if r.Violations != 0 {
			t.Errorf("k=%d/%s: %d per-instance violations", r.Keys, r.Skew, r.Violations)
		}
		if r.Grants == 0 {
			t.Errorf("k=%d/%s: no grants", r.Keys, r.Skew)
		}
		if r.States > r.N*r.Keys {
			t.Errorf("k=%d/%s: states %d exceed worst case", r.Keys, r.Skew, r.States)
		}
		if r.Keys == 1 && r.Skew == "uniform" {
			anchor = r.MsgsPerCS
		}
		if r.Keys > 1 && r.Regens == 0 {
			t.Errorf("k=%d/%s: crash injection never regenerated", r.Keys, r.Skew)
		}
	}
	for _, r := range rows {
		// Multiplexing 64 instances must not inflate the per-CS cost
		// beyond crash-recovery noise (generous 3x guard; the recorded
		// sweeps sit within a few percent of the anchor).
		if r.Keys == 64 && r.MsgsPerCS > 3*anchor {
			t.Errorf("k=64/%s: msgs/CS %.2f vs single-instance %.2f — cost grew with K", r.Skew, r.MsgsPerCS, anchor)
		}
	}
	if s := formatE9(rows); !strings.Contains(s, "E9") || !strings.Contains(s, "zipf") {
		t.Error("formatE9 missing header or skew rows")
	}
}

func TestWorkloadGenerators(t *testing.T) {
	rng := newRng(1)
	u := workload.Uniform(rng, 8, 100, 1000)
	if len(u) != 100 {
		t.Errorf("uniform count = %d", len(u))
	}
	for i := 1; i < len(u); i++ {
		if u[i].At < u[i-1].At {
			t.Fatal("uniform schedule not sorted")
		}
	}
	h := workload.Hotspot(rng, 8, 200, 1000, 2, 0.9)
	hot := 0
	for _, r := range h {
		if r.Node < 2 {
			hot++
		}
	}
	if hot < 120 {
		t.Errorf("hotspot fraction too low: %d/200", hot)
	}
	ps := workload.Poisson(rng, 8, 10, 1000)
	if len(ps) == 0 {
		t.Error("poisson generated nothing")
	}
	rr := workload.RoundRobin(5, 10)
	if len(rr) != 5 || rr[4].Node != 4 || rr[4].At != 40 {
		t.Errorf("round robin wrong: %+v", rr)
	}
	// Degenerate hotspot parameters are clamped.
	if got := workload.Hotspot(rng, 4, 10, 100, 0, 1.0); len(got) != 10 {
		t.Error("hotspot with zero hot nodes")
	}
}

func TestSingleRequestCostMatchesHandTrace(t *testing.T) {
	// Hand-checked values from the paper's structures: on the pristine
	// 8-cube, c(5)=2 (all-boundary branch), c(6)=5 (the log2N+2 case),
	// c(2)=3 (direct lend), c(8)=4.
	for _, tc := range []struct {
		label int
		want  int64
	}{
		{1, 0}, {2, 3}, {3, 3}, {4, 4}, {5, 2}, {6, 5}, {7, 3}, {8, 4},
	} {
		got, err := singleRequestCost(3, ocube.FromLabel(tc.label))
		if err != nil {
			t.Fatal(err)
		}
		if got != tc.want {
			t.Errorf("c(%d) = %d, want %d", tc.label, got, tc.want)
		}
	}
}

func TestE6AdaptivityShape(t *testing.T) {
	// The paper's adaptivity claim (Section 6): with frequent requesters
	// placed adversarially for a static tree, the open-cube must (a) be
	// cheaper overall than static Raymond, and (b) serve its hot nodes
	// more cheaply than its cold ones — evidence the tree restructured.
	rows, err := E6Adaptivity(Options{Seed: 3}, []int{4, 5})
	if err != nil {
		t.Fatal(err)
	}
	byAlgo := map[string]map[int]E6Row{}
	for _, r := range rows {
		if byAlgo[r.Algorithm] == nil {
			byAlgo[r.Algorithm] = map[int]E6Row{}
		}
		byAlgo[r.Algorithm][r.N] = r
	}
	for _, n := range []int{16, 32} {
		oc, ray := byAlgo["open-cube"][n], byAlgo["classic-raymond"][n]
		if oc.MsgsPerCS >= ray.MsgsPerCS {
			t.Errorf("N=%d: open-cube %.2f not cheaper than static raymond %.2f",
				n, oc.MsgsPerCS, ray.MsgsPerCS)
		}
		if oc.HotMsgsPer >= oc.ColdMsgsPer {
			t.Errorf("N=%d: hot nodes (%.2f) not cheaper than cold (%.2f); no adaptation",
				n, oc.HotMsgsPer, oc.ColdMsgsPer)
		}
	}
	if s := formatE6(rows); !strings.Contains(s, "E6") {
		t.Error("formatE6 missing header")
	}
}

func TestE9NoStalledCells(t *testing.T) {
	// PR 5 removed the K=1 crash-injection exemption: its stated reason
	// was the DESIGN.md §7 storm residual, which is fixed. Every cell —
	// single-mutex included — now carries the hot-instance crash and must
	// complete with zero violations.
	rows, err := E9Lockspace(Options{Seed: 1993}, 4, []int{1, 16})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if !r.Completed {
			t.Errorf("k=%d/%s: STALLED", r.Keys, r.Skew)
		}
		if r.Violations != 0 {
			t.Errorf("k=%d/%s: %d violations", r.Keys, r.Skew, r.Violations)
		}
		if r.Regens == 0 {
			t.Errorf("k=%d/%s: crash injection never regenerated (exemption resurrected?)", r.Keys, r.Skew)
		}
	}
}

// TestWriteAutopsies: E9 and E13 hand their runs, in cell order, to one
// writer, which writes the autopsies the stalled runs carry in that order
// and nothing for a run that settled.
func TestWriteAutopsies(t *testing.T) {
	stalled := func(s string) keyedRun { return keyedRun{stalled: 1, autopsy: []byte(s)} }
	for _, tc := range []struct {
		runs []keyedRun
		want string
	}{
		{[]keyedRun{{}, stalled("cell 1\n")}, "cell 1\n"},
		{[]keyedRun{stalled("cell 0\n"), stalled("cell 1\n")}, "cell 0\ncell 1\n"},
	} {
		var b strings.Builder
		Options{Autopsy: &b}.writeAutopsies(tc.runs)
		if b.String() != tc.want {
			t.Errorf("wrote %q, want %q", b.String(), tc.want)
		}
	}
}

func TestE10SteadyChurnShape(t *testing.T) {
	// The steady-state experiment the §7 fix unblocks: continuous churn
	// concurrent with load, no episode boundaries. Every run must settle
	// (stuck = 0 — the §7 regression signal), stay violation-free, and
	// keep the sustained per-CS cost inside the paper's log²N fault
	// envelope.
	rows, err := E10SteadyChurn(Options{Seed: 1993}, []int{5, 6})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(rows))
	}
	for _, r := range rows {
		if r.Stuck != 0 {
			t.Errorf("N=%d: %d stuck runs", r.N, r.Stuck)
		}
		if r.Violations != 0 {
			t.Errorf("N=%d: %d violations", r.N, r.Violations)
		}
		if r.Grants == 0 || r.Failures == 0 {
			t.Errorf("N=%d: grants=%d failures=%d — churn cell did no work", r.N, r.Grants, r.Failures)
		}
		if r.SteadyMsgs <= 0 || r.SteadyMsgs > 4*r.Log2Sq {
			t.Errorf("N=%d: steady msgs/CS %.2f outside (0, 4·log²N=%.0f]", r.N, r.SteadyMsgs, 4*r.Log2Sq)
		}
		if r.WaitP99 < r.WaitP50 {
			t.Errorf("N=%d: wait p99 %v below p50 %v", r.N, r.WaitP99, r.WaitP50)
		}
	}
	if s := formatE10(rows); !strings.Contains(s, "E10") || !strings.Contains(s, "stuck") {
		t.Error("formatE10 missing header or stuck column")
	}
}

// TestE11SessionsAcknowledgeTokensThemselves: with sessions on, no
// token-ack message is sent in any cell — the session's ack is the unlent
// token's receipt — every such cell completes with no visible violation,
// and without sessions the acknowledgments are all on the wire.
func TestE11SessionsAcknowledgeTokensThemselves(t *testing.T) {
	rows, err := E11LossyRecovery(Options{Seed: 1993}, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		switch {
		case r.Session && (r.TokenAcks != 0 || r.Receipts == 0 || !r.Completed || r.Visible != 0):
			t.Errorf("session on: %+v, want receipts in place of every token-ack, completed, nothing visible", r)
		case !r.Session && (r.TokenAcks == 0 || r.Receipts != 0):
			t.Errorf("session off: %+v, want the acknowledgments on the wire and no receipt", r)
		}
	}
}
