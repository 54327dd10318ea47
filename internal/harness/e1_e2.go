package harness

import (
	"fmt"
	"strconv"
	"time"

	"repro/internal/ocube"
	"repro/internal/sim"
)

// E1Row is one line of the worst-case experiment (paper Section 4: worst
// case messages per request).
type E1Row struct {
	N            int
	MaxMeasured  int64 // worst request cost found (pristine + evolved trees)
	PaperBound   int   // log2(N)+1, the paper's claim
	StrictBound  int   // log2(N)+2, the pseudocode's true worst case
	ProbedConfig int   // number of (configuration, requester) pairs probed
}

// E1WorstCase measures the worst per-request message cost for each cube
// order: every requester on the pristine cube, plus sequential probes on
// randomly evolved (but always valid) open-cubes. Pristine-cube probes
// are independent (p, requester) cells and run on the sweep worker pool;
// the evolving-tree probes of one order share a network and stay
// sequential, but distinct orders sweep concurrently.
func E1WorstCase(o Options, ps []int, probesPerP int) ([]E1Row, error) {
	return forEach(o.Workers, len(ps), func(pi int) (E1Row, error) {
		p := ps[pi]
		n := 1 << p
		row := E1Row{N: n, PaperBound: ocube.WorstCaseMessages(n),
			StrictBound: ocube.WorstCaseMessages(n) + 1}
		// Every requester from the pristine configuration.
		costs, err := pristineCosts(o, p)
		if err != nil {
			return row, err
		}
		for _, c := range costs {
			row.ProbedConfig++
			if c > row.MaxMeasured {
				row.MaxMeasured = c
			}
		}
		// Sequential probes on evolving trees.
		rng := newRng(o.Seed + int64(p))
		w, rec, err := simulate(sim.Config{P: p, Seed: o.Seed, Delay: sim.FixedDelay(delta)})
		if err != nil {
			return row, err
		}
		for i := 0; i < probesPerP; i++ {
			before := rec.Total()
			w.RequestCS(ocube.Pos(rng.Intn(n)), 0)
			if !w.RunUntilQuiescent(time.Hour) {
				return row, fmt.Errorf("harness: e1 probe did not quiesce")
			}
			row.ProbedConfig++
			if c := rec.Total() - before; c > row.MaxMeasured {
				row.MaxMeasured = c
			}
		}
		return row, nil
	})
}

// pristineCosts measures c(i) for every requester i of the pristine
// 2^p-open-cube, each an independent cell on the sweep pool.
func pristineCosts(o Options, p int) ([]int64, error) {
	return forEach(o.Workers, 1<<p, func(i int) (int64, error) {
		return singleRequestCost(p, ocube.Pos(i))
	})
}

// formatE1 renders the E1 table.
func formatE1(rows []E1Row) string {
	header := []string{"N", "max msgs/request", "paper log2N+1", "strict log2N+2", "probes"}
	body := make([][]string, len(rows))
	for i, r := range rows {
		body[i] = []string{
			strconv.Itoa(r.N),
			strconv.FormatInt(r.MaxMeasured, 10),
			strconv.Itoa(r.PaperBound),
			strconv.Itoa(r.StrictBound),
			strconv.Itoa(r.ProbedConfig),
		}
	}
	return "E1 — worst-case messages per request (sequential)\n" + table(header, body)
}

// E2Row is one line of the average-complexity experiment (paper Section
// 4: c̄ = αp/2^p ≈ 3/4·log2 N + 5/4).
type E2Row struct {
	N           int
	Measured    float64 // mean c(i) over all pristine-cube requesters
	AlphaExact  float64 // αp / 2^p
	Approx      float64 // 3/4·log2 N + 5/4
	SteadyState float64 // mean msgs/grant under a random steady workload
}

// E2Average measures the exact per-node average on pristine cubes (the
// paper's analytical setting) and a steady-state average under
// concurrent random load. Each (p, requester) probe and each per-order
// steady-state run is an independent seeded cell on the sweep pool; the
// per-order totals are summed in requester order, so the averages are
// bit-identical to the sequential sweep.
func E2Average(o Options, ps []int) ([]E2Row, error) {
	return forEach(o.Workers, len(ps), func(pi int) (E2Row, error) {
		p := ps[pi]
		n := 1 << p
		costs, err := pristineCosts(o, p)
		if err != nil {
			return E2Row{}, err
		}
		var total int64
		for _, c := range costs {
			total += c
		}
		row := E2Row{
			N:          n,
			Measured:   float64(total) / float64(n),
			AlphaExact: ocube.AverageMessages(p),
			Approx:     ocube.AverageApprox(n),
		}
		row.SteadyState, err = steadyStateAverage(o, p)
		return row, err
	})
}

// steadyStateAverage runs a concurrent random workload and returns mean
// messages per grant.
func steadyStateAverage(o Options, p int) (float64, error) {
	w, rec, err := simulate(sim.Config{P: p, Seed: o.Seed,
		Delay: sim.UniformDelay(delta/2, delta), CSTime: csTime(2 * delta)})
	if err != nil {
		return 0, err
	}
	count := 8 << p
	scatter(w, newRng(o.Seed), count, time.Duration(count)*delta)
	if !w.RunUntilQuiescent(24 * time.Hour) {
		return 0, fmt.Errorf("harness: steady-state workload did not quiesce")
	}
	if w.Grants() == 0 {
		return 0, fmt.Errorf("harness: steady-state workload had no grants")
	}
	return float64(rec.Total()) / float64(w.Grants()), nil
}

// formatE2 renders the E2 table.
func formatE2(rows []E2Row) string {
	header := []string{"N", "measured avg", "exact αp/2^p", "approx ¾log2N+5/4", "steady-state avg"}
	body := make([][]string, len(rows))
	for i, r := range rows {
		body[i] = []string{
			strconv.Itoa(r.N),
			fmt.Sprintf("%.4f", r.Measured),
			fmt.Sprintf("%.4f", r.AlphaExact),
			fmt.Sprintf("%.4f", r.Approx),
			fmt.Sprintf("%.4f", r.SteadyState),
		}
	}
	return "E2 — average messages per request\n" + table(header, body)
}
