package harness

import (
	"fmt"
	"math/rand"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/naimitrehel"
	"repro/internal/raymond"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Workload shapes for E5.
const (
	// LoadSpread issues requests spread widely in time (low contention).
	LoadSpread = "spread"
	// LoadBurst issues all requests nearly at once (high contention);
	// Naimi-Trehel's forwarding chains grow with the number of in-flight
	// requests here, exposing its O(n) worst case.
	LoadBurst = "burst"
	// LoadHotspot concentrates most requests on a few nodes, the
	// adaptivity scenario that motivates dynamic trees.
	LoadHotspot = "hotspot"
)

// Algorithms compared by E5.
var E5Algorithms = []string{
	"open-cube",
	"scheme-raymond",
	"scheme-naimi-trehel",
	"classic-raymond",
	"classic-naimi-trehel",
}

// E5Row is one (algorithm, N, workload) measurement.
type E5Row struct {
	Algorithm  string
	N          int
	Load       string
	Grants     int64
	MsgsPerCS  float64
	Violations int64
}

// E5Comparison runs the same seeded schedule through the open-cube
// algorithm, the two general-scheme instances and the two classic
// baselines — all on the unified typed-event engine with the identical
// delay model — and reports mean messages per critical section. Schedules
// are drawn up front per (order, load) — every algorithm replays the
// identical read-only schedule — and the (order, load, algorithm) cells
// run concurrently on the sweep pool, assembled in sequential order.
func E5Comparison(o Options, ps []int, loads []string) ([]E5Row, error) {
	type cell struct {
		p    int
		load string
		algo string
		reqs []workload.Request
	}
	var cells []cell
	for _, p := range ps {
		n := 1 << p
		for _, load := range loads {
			reqs := scheduleFor(load, n, o.Seed)
			for _, algo := range E5Algorithms {
				cells = append(cells, cell{p: p, load: load, algo: algo, reqs: reqs})
			}
		}
	}
	return forEach(o.Workers, len(cells), func(i int) (E5Row, error) {
		c := cells[i]
		row, err := runE5(o, c.algo, c.p, c.load, c.reqs)
		if err != nil {
			err = fmt.Errorf("harness: e5 %s N=%d %s: %w", c.algo, 1<<c.p, c.load, err)
		}
		return row, err
	})
}

func scheduleFor(load string, n int, seed int64) []workload.Request {
	rng := rand.New(rand.NewSource(seed))
	count := 6 * n
	switch load {
	case LoadBurst:
		return workload.Uniform(rng, n, count, 4*delta)
	case LoadHotspot:
		return workload.Hotspot(rng, n, count, time.Duration(count)*delta, max(1, n/8), 0.8)
	default: // LoadSpread
		return workload.Uniform(rng, n, count, time.Duration(2*count)*delta)
	}
}

// simulateAlgorithm builds a network running an E5/E8 algorithm at o.Seed
// under delay, with CS durations uniform in [0, δ): the scheme instances
// are open-cube nodes with a swapped Policy, the classic baselines plug in
// through sim.Algorithm, so every algorithm runs on the identical engine,
// delay model and seeds. ft turns on the Section 5 failure handling of
// the open-cube nodes, scheme instances included ("open-cube-fenced" adds
// the epoch fence); the classic baselines have no equivalent and ignore it.
func simulateAlgorithm(o Options, algo string, p int, delay sim.DelayFn, ft bool) (*sim.Network, *trace.Recorder, error) {
	cfg := sim.Config{P: p, Seed: o.Seed, Delay: delay, CSTime: csTime(delta)}
	switch algo {
	case "open-cube", "open-cube-fenced":
	case "scheme-raymond":
		cfg.Node = core.Config{Policy: core.RaymondPolicy{}}
	case "scheme-naimi-trehel":
		cfg.Node = core.Config{Policy: core.NaimiTrehelPolicy{}}
	case "classic-raymond":
		cfg.Algorithm = raymond.Algorithm()
	case "classic-naimi-trehel":
		cfg.Algorithm = naimitrehel.Algorithm()
	default:
		return nil, nil, fmt.Errorf("unknown algorithm %q", algo)
	}
	if ft {
		node := ftNodeConfig()
		node.Policy, node.EpochFence = cfg.Node.Policy, algo == "open-cube-fenced"
		cfg.Node = node
	}
	return simulate(cfg)
}

func runE5(o Options, algo string, p int, load string, reqs []workload.Request) (E5Row, error) {
	row := E5Row{Algorithm: algo, N: 1 << p, Load: load}
	w, rec, err := simulateAlgorithm(o, algo, p, sim.UniformDelay(delta/2, delta), false)
	if err != nil {
		return row, err
	}
	if err := runSchedule(w, reqs); err != nil {
		return row, err
	}
	row.Grants = w.Grants()
	row.Violations = w.Violations()
	if row.Grants > 0 {
		row.MsgsPerCS = float64(rec.Total()) / float64(row.Grants)
	}
	return row, nil
}

// formatE5 renders the comparison grouped by workload and N.
func formatE5(rows []E5Row) string {
	header := []string{"load", "N", "algorithm", "grants", "msgs/CS", "violations"}
	body := make([][]string, len(rows))
	for i, r := range rows {
		body[i] = []string{
			r.Load,
			strconv.Itoa(r.N),
			r.Algorithm,
			strconv.FormatInt(r.Grants, 10),
			fmt.Sprintf("%.3f", r.MsgsPerCS),
			strconv.FormatInt(r.Violations, 10),
		}
	}
	return "E5 — algorithm comparison (mean messages per critical section)\n" +
		table(header, body)
}
