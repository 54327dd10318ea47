package harness

import (
	"fmt"
	"strconv"
	"time"

	"repro/internal/ocube"
	"repro/internal/sim"
)

// E7 is the large-P scaling sweep added once the PR 1/PR 2 engine work
// made cube orders 8–12 (256–4096 nodes) affordable to simulate. Each
// order runs the same seeded random workload twice: failure-free, whose
// messages-per-CS is compared against Lavault's average-case prediction
// ¾·log₂N + 5/4 for path-reversal trees (PAPERS.md), and fault-tolerant
// with periodic fail/recover episodes, whose messages-per-CS — repair
// traffic included — is compared against the paper's O(log²n) envelope.

// E7Row is one line of the large-P sweep.
type E7Row struct {
	N           int
	Requests    int     // failure-free workload size (the FT cell is episode-driven)
	FFMsgsPerCS float64 // failure-free messages per critical section
	Lavault     float64 // Lavault's prediction ¾·log₂N + 5/4
	FTMsgsPerCS float64 // fault-tolerant run with failure episodes
	Log2Sq      float64 // log₂(N)², the paper's O(log²n) reference
	Failures    int     // completed fail/recover episodes in the FT run
	Stuck       int     // episodes abandoned as non-quiescent (DESIGN.md §7)
	Regens      int64   // token regenerations in the FT run
	Violations  int64   // must be zero in both runs
}

// strict is what -strict fails an E7 row on: a stuck episode or a
// violation in either run, failure-free msgs/CS above Lavault's
// ¾·log₂N + 5/4, or fault-tolerant msgs/CS above the log₂²N envelope.
func (r E7Row) strict() error {
	switch {
	case r.Stuck != 0 || r.Violations != 0:
		return fmt.Errorf("strict: e7 N=%d stuck=%d violations=%d", r.N, r.Stuck, r.Violations)
	case r.FFMsgsPerCS > r.Lavault:
		return fmt.Errorf("strict: e7 N=%d: ff msgs/CS %.3f > ¾log2N+5/4 = %.4f", r.N, r.FFMsgsPerCS, r.Lavault)
	case r.FTMsgsPerCS > r.Log2Sq:
		return fmt.Errorf("strict: e7 N=%d: ft msgs/CS %.3f > log2²N = %.0f", r.N, r.FTMsgsPerCS, r.Log2Sq)
	}
	return nil
}

// E7LargeP runs the sweep for the given cube orders. The (order, mode)
// cells are independent seeded runs and spread over the sweep worker
// pool; rows assemble in input order.
func E7LargeP(o Options, ps []int) ([]E7Row, error) {
	results, err := forEach(o.Workers, 2*len(ps), func(i int) (e7Result, error) {
		return e7Run(o, ps[i/2], i%2 == 1)
	})
	if err != nil {
		return nil, err
	}
	rows := make([]E7Row, len(ps))
	for i, p := range ps {
		ff, ft := results[2*i], results[2*i+1]
		rows[i] = E7Row{
			N:           1 << p,
			Requests:    ff.requests,
			FFMsgsPerCS: ff.msgsPerCS,
			Lavault:     ocube.AverageApprox(1 << p),
			FTMsgsPerCS: ft.msgsPerCS,
			Log2Sq:      float64(p * p),
			Failures:    ft.failures,
			Stuck:       ft.stuck,
			Regens:      ft.regens,
			Violations:  ff.viol + ft.viol,
		}
	}
	return rows, nil
}

// e7Result is one cell's measurement.
type e7Result struct {
	msgsPerCS float64
	requests  int
	failures  int
	stuck     int
	regens    int64
	viol      int64
}

// e7Run drives one (order, mode) cell.
//
// The failure-free cell is a single seeded random workload of 6·N
// requests over a wide horizon. The FT cell instead follows E3's proven
// episode discipline — light load per episode, quiescence between
// episodes — because a saturated workload makes every queued asker
// suspect at once when a token holder dies, and the resulting concurrent
// search storm measures the overload pathology rather than the per-CS
// fault-tolerance cost the O(log²n) bound is about.
func e7Run(o Options, p int, ft bool) (e7Result, error) {
	n := 1 << p
	w, rec, err := simulateAlgorithm(o, "open-cube", p, sim.UniformDelay(delta/2, delta), ft)
	if err != nil {
		return e7Result{}, err
	}
	rng := newRng(o.Seed + int64(p))
	if !ft {
		count := 6 * n
		scatter(w, rng, count, time.Duration(4*count)*delta)
		if !w.RunUntilQuiescent(240 * time.Hour) {
			return e7Result{}, fmt.Errorf("harness: e7 run (p=%d) did not quiesce", p)
		}
		if w.Grants() == 0 {
			return e7Result{}, fmt.Errorf("harness: e7 run (p=%d) had no grants", p)
		}
		return e7Result{
			msgsPerCS: float64(rec.Total()) / float64(w.Grants()),
			requests:  count,
			regens:    w.Regenerations(),
			viol:      w.Violations(),
		}, nil
	}

	episodes := min(max(n/16, 8), 48)
	const episodeCap = 1000 * time.Second // virtual time; repairs finish in <1s
	var (
		done, stuck          int
		msgsGood, grantsGood int64
	)
	for k := 0; k < episodes; k++ {
		// A handful of background requests beside the son's keeps the
		// token moving so victims regularly hold or borrow it.
		victim, quiesced := strike(w, rng, 6, 16*delta, episodeCap)
		if quiesced {
			w.Recover(victim, 0)
			quiesced = w.RunUntilQuiescent(episodeCap)
		}
		if !quiesced {
			// The rare (<1%) stale-duplicate circulation of DESIGN.md §7:
			// abandon the network at the last good snapshot rather than
			// let the stalled episode's traffic bias the per-CS average.
			stuck++
			break
		}
		done++
		msgsGood, grantsGood = rec.Total(), w.Grants()
	}
	if grantsGood == 0 {
		return e7Result{}, fmt.Errorf("harness: e7 run (p=%d ft) had no completed episodes", p)
	}
	return e7Result{
		msgsPerCS: float64(msgsGood) / float64(grantsGood),
		failures:  done,
		stuck:     stuck,
		regens:    w.Regenerations(),
		viol:      w.Violations(),
	}, nil
}

// formatE7 renders the large-P sweep table.
func formatE7(rows []E7Row) string {
	header := []string{"N", "ff requests", "ff msgs/CS", "Lavault ¾log2N+5/4",
		"ft msgs/CS", "log2²N", "failures", "stuck", "regens", "violations"}
	body := make([][]string, len(rows))
	for i, r := range rows {
		body[i] = []string{
			strconv.Itoa(r.N),
			strconv.Itoa(r.Requests),
			fmt.Sprintf("%.3f", r.FFMsgsPerCS),
			fmt.Sprintf("%.4f", r.Lavault),
			fmt.Sprintf("%.3f", r.FTMsgsPerCS),
			fmt.Sprintf("%.0f", r.Log2Sq),
			strconv.Itoa(r.Failures),
			strconv.Itoa(r.Stuck),
			strconv.FormatInt(r.Regens, 10),
			strconv.FormatInt(r.Violations, 10),
		}
	}
	return "E7 — large-P scaling: failure-free vs Lavault's average, fault-tolerant vs the O(log²N) envelope\n" +
		table(header, body)
}
