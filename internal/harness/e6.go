package harness

import (
	"fmt"
	"strconv"
	"time"

	"repro/internal/metrics"
	"repro/internal/ocube"
	"repro/internal/sim"
	"repro/internal/workload"
)

// E6Row quantifies the paper's workload-adaptivity claim (Section 6:
// "adaptativity of each node workload according to the frequency of
// requests to enter the critical section"). The hot set is placed
// adversarially for a static tree: the deepest leaf of every major
// subtree, pairwise far apart, so a static structure pays the tree
// diameter on every hot-to-hot handoff while the open-cube restructures
// to bring the frequent requesters near the root.
type E6Row struct {
	Algorithm   string
	N           int
	MsgsPerCS   float64 // total messages per critical section
	HotMsgsPer  float64 // per-source mean for hot nodes (open-cube only)
	ColdMsgsPer float64 // per-source mean for cold nodes (open-cube only)
}

// hotSet returns the deepest leaf of each major subtree: positions
// 2^(j+1)-1, which are power-0 leaves at pairwise distance ≥ j+1.
func hotSet(p int) []int {
	var out []int
	for j := p - 1; j >= 1 && len(out) < 4; j-- {
		out = append(out, 1<<(j+1)-1)
	}
	return out
}

// E6Adaptivity runs the adversarial hotspot workload (80% of requests
// from the spread hot set) through the open-cube algorithm and classic
// Raymond on the identical schedule. The per-order schedules are drawn
// up front; the (order, algorithm) cells run concurrently on the sweep
// pool and assemble in sequential order.
func E6Adaptivity(o Options, ps []int) ([]E6Row, error) {
	type cell struct {
		algo string
		p    int
		hot  []int // the open-cube row's hot set
		reqs []workload.Request
	}
	var cells []cell
	for _, p := range ps {
		n := 1 << p
		hot := hotSet(p)
		rng := newRng(o.Seed)
		count := 20 * n
		reqs := workload.HotspotSet(rng, n, count, time.Duration(2*count)*delta, hot, 0.8)
		cells = append(cells,
			cell{algo: "open-cube", p: p, hot: hot, reqs: reqs},
			cell{algo: "classic-raymond", p: p, reqs: reqs})
	}
	return forEach(o.Workers, len(cells), func(i int) (E6Row, error) {
		return runE6(o, cells[i].algo, cells[i].p, cells[i].hot, cells[i].reqs)
	})
}

// runE6 is one (order, algorithm) cell. The open-cube row also splits its
// per-source cost between the hot set and the rest.
func runE6(o Options, algo string, p int, hot []int, reqs []workload.Request) (E6Row, error) {
	n := 1 << p
	row := E6Row{Algorithm: algo, N: n}
	w, rec, err := simulateAlgorithm(o, algo, p, sim.UniformDelay(delta/2, delta), false)
	if err != nil {
		return row, err
	}
	grants := make([]int64, n)
	w.OnGrant(func(node ocube.Pos) { grants[node]++ })
	if err := runSchedule(w, reqs); err != nil {
		return row, err
	}
	if w.Grants() == 0 {
		return row, fmt.Errorf("harness: e6 %s had no grants", algo)
	}
	row.MsgsPerCS = float64(rec.Total()) / float64(w.Grants())
	if hot == nil {
		return row, nil
	}
	isHot := map[int]bool{}
	for _, h := range hot {
		isHot[h] = true
	}
	hotStat, coldStat := &metrics.Summary{}, &metrics.Summary{}
	for i := 0; i < n; i++ {
		if grants[i] == 0 {
			continue
		}
		v := float64(rec.Source(i)) / float64(grants[i])
		if isHot[i] {
			hotStat.Observe(v)
		} else {
			coldStat.Observe(v)
		}
	}
	row.HotMsgsPer, row.ColdMsgsPer = hotStat.Mean(), coldStat.Mean()
	return row, nil
}

// formatE6 renders the adaptivity comparison.
func formatE6(rows []E6Row) string {
	header := []string{"algorithm", "N", "msgs/CS", "hot msgs/CS", "cold msgs/CS"}
	body := make([][]string, len(rows))
	for i, r := range rows {
		hot, cold := "-", "-"
		if r.HotMsgsPer > 0 {
			hot = fmt.Sprintf("%.3f", r.HotMsgsPer)
			cold = fmt.Sprintf("%.3f", r.ColdMsgsPer)
		}
		body[i] = []string{
			r.Algorithm,
			strconv.Itoa(r.N),
			fmt.Sprintf("%.3f", r.MsgsPerCS),
			hot,
			cold,
		}
	}
	return "E6 — workload adaptivity: adversarial hotspot (80% of load on spread deep leaves)\n" +
		table(header, body)
}
