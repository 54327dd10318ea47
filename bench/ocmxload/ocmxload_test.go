package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"testing"
	"time"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestSpecWithinContract checks the tables against the limits the
// benchmark's contract sets, and against the checked-in BENCHMARK.json.
func TestSpecWithinContract(t *testing.T) {
	seen := map[string]bool{}
	name := func(kind, n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("%s name %q is outside [A-Za-z0-9_.-]{1,64}", kind, n)
		}
		if seen[n] {
			t.Errorf("%s name %q is used twice", kind, n)
		}
		seen[n] = true
	}
	for _, w := range workloads {
		name("workload", w.Name)
		if len(w.Why) > 200 || bytes.ContainsRune([]byte(w.Why), '\n') {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	hasSetup := false
	for _, m := range endToEnd {
		name("end-to-end metric", m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			hasSetup = m.Unit == "s" && m.Better == "lower"
		}
	}
	if !hasSetup {
		t.Error("end-to-end metrics must include setup_s in s, lower is better")
	}
	for _, m := range perLayer {
		name("per-layer metric", m.Name)
	}
	if len(perLayer) > 128 || len(endToEnd) > 16 || len(workloads) < 2 || len(workloads) > 8 {
		t.Error("table sizes outside the contract")
	}

	var want bytes.Buffer
	if err := benchmarkJSON(&want); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Skipf("no BENCHMARK.json beside bench/: %v", err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Error("BENCHMARK.json differs from `ocmxload -benchmark-json`; regenerate it")
	}
}

// smoke runs one workload with a short window and a tiny ready state.
func smoke(t *testing.T, w workloadSpec, seed int64, traced bool, spans string) *result {
	t.Helper()
	res, err := w.run(runOptions{seed: seed, window: 300 * time.Millisecond, traced: traced, spans: spans, smoke: true})
	if err != nil {
		t.Fatalf("%s seed %d traced %v: %v", w.Name, seed, traced, err)
	}
	if res.attempted < 1 || res.failed != 0 {
		t.Errorf("%s: attempted %d, failed %d", w.Name, res.attempted, res.failed)
	}
	return res
}

// TestSmoke runs every workload untraced and traced: every end-to-end
// metric is measured and non-zero, every traced metric carries a name of
// the per-layer table, and the span file parses with every parent present.
func TestSmoke(t *testing.T) {
	layer := map[string]bool{}
	for _, m := range perLayer {
		layer[m.Name] = true
	}
	e2e := map[string]bool{}
	for _, m := range endToEnd {
		e2e[m.Name] = true
	}
	for _, w := range workloads {
		res := smoke(t, w, 1, false, "")
		for _, m := range endToEnd {
			if v, ok := res.metrics[m.Name]; !ok || v <= 0 {
				t.Errorf("%s/%s = %v, want a positive measurement", w.Name, m.Name, v)
			}
		}
		for n, v := range res.metrics {
			if !layer[n] && !e2e[n] {
				t.Errorf("%s: untraced run reports %q, which is in neither table", w.Name, n)
			}
			if v <= 0 {
				t.Errorf("%s/%s = %v, want a positive measurement", w.Name, n, v)
			}
		}

		path := filepath.Join(t.TempDir(), "spans.jsonl")
		res = smoke(t, w, 1, true, path)
		for n := range res.metrics {
			if !layer[n] {
				t.Errorf("%s: traced run reports %q, which is not a per-layer metric", w.Name, n)
			}
		}
		if _, ok := res.metrics["bench.trace_overhead_share"]; !ok {
			t.Errorf("%s: no bench.trace_overhead_share", w.Name)
		}
		checkSpans(t, w.Name, path)
	}
}

func checkSpans(t *testing.T, workload, path string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var spans []span
	ids := map[int64]bool{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("%s: span line %d: %v", workload, len(spans)+1, err)
		}
		ids[s.ID] = true
		spans = append(spans, s)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(spans) < 3 {
		t.Fatalf("%s: only %d spans", workload, len(spans))
	}
	for _, s := range spans {
		if s.Parent != 0 && !ids[s.Parent] {
			t.Errorf("%s: span %d (%s) has parent %d, which is not in the file", workload, s.ID, s.Name, s.Parent)
		}
	}
}

// TestSimVirtualTimeRepeats pins what the zero-tolerance reading of the sim
// workloads rests on: everything read in virtual time is identical across
// two runs of one seed, and moves with the seed.
func TestSimVirtualTimeRepeats(t *testing.T) {
	virtual := []string{"lock.acquire_p50_us", "lock.acquire_p99_us", "msgs_per_grant"}
	for _, name := range []string{"sim-keyed", "sim-faulty"} {
		w := *findWorkload(name)
		a, b, c := smoke(t, w, 1, false, ""), smoke(t, w, 1, false, ""), smoke(t, w, 2, false, "")
		differs := false
		for _, m := range virtual {
			if a.metrics[m] != b.metrics[m] {
				t.Errorf("%s/%s: %v then %v under one seed", name, m, a.metrics[m], b.metrics[m])
			}
			differs = differs || a.metrics[m] != c.metrics[m]
		}
		if !differs || a.attempted != b.attempted {
			t.Errorf("%s: seed 2 reproduced seed 1, or seed 1 did not reproduce itself", name)
		}
	}
}
