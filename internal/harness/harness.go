// Package harness regenerates every quantitative claim of the paper's
// evaluation and the repository's extensions (DESIGN.md experiments
// E1-E11 and E13; E12 is the live chaos rig, cmd/ocmxchaos) and formats
// the results as the tables printed by cmd/ocmxbench and recorded in
// EXPERIMENTS.md. Experiments lists them — name, parameters at the default
// and the -full scale, sweep, table and -strict predicate — and Gates the
// small deterministic cells `go test -bench Gate` times and
// TestGateMetrics pins; the CLI, CI, the benchmarks and the goldens all
// walk those two lists.
//
// Every simulated cell is built by one of two functions: simulate for a
// single-mutex sim.Network, which attaches the cell's message recorder,
// and runKeyed for a lockspace.Space (E9, and each slice of E13), which
// attaches the Options.FlightDepth flight recorder its stall autopsy
// reads.
//
// Every experiment is deterministic given its seed, and stays so when the
// independent (p, seed, probe) cells are spread over Options.Workers
// workers: tables are byte-identical for any worker count.
package harness

import (
	"fmt"
	"io"
	"math/rand"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/ocube"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// delta is the simulated maximum message delay used across experiments.
const delta = time.Millisecond

// Options is what a sweep is handed besides its own parameters. Seed and
// Full decide what is computed; every other field is an execution knob
// that never changes a table byte (CI cmp-gates that).
type Options struct {
	// Seed seeds every cell, mixed with the cell's coordinates.
	Seed int64
	// Full selects the paper-scale parameters of Experiments.
	Full bool
	// Workers is the number of goroutines independent cells (and E13's
	// slices) are spread over; <= 1 is the sequential sweep.
	Workers int
	// FlightDepth > 0 attaches a token-lineage flight recorder
	// (internal/obs) of that depth to every keyed space runKeyed builds,
	// where an E13 slice's stall autopsy (Autopsy) reads it.
	FlightDepth int
	// Autopsy, when non-nil, receives a JSONL autopsy for every E13 slice
	// that stalls, after the sweep and in (cell, slice) order.
	Autopsy io.Writer
	// Metrics, when non-nil, receives what a run exports beside its
	// table: experiments run and their wall-clock, E11's acknowledgment
	// counters.
	Metrics *obs.Registry
}

// flight returns a fresh flight recorder for one keyed space, or nil when
// recording is off. Each space gets its own: sweeps run cells in parallel
// and lineage is only read for autopsies, never merged.
func (o Options) flight() *obs.Flight {
	if o.FlightDepth <= 0 {
		return nil
	}
	return obs.NewFlight(o.FlightDepth)
}

// ftNodeConfig is the node configuration used by the failure experiments.
// The suspicion slack must exceed the longest legitimate wait (queueing
// behind concurrent critical sections), or healthy waits masquerade as
// failures and their searches pollute the overhead counts — the paper's
// suspicion delays are lower bounds ("at least 2·pmax·δ") for exactly
// this reason.
func ftNodeConfig() core.Config {
	return core.Config{
		FT:             true,
		Delta:          delta,
		CSEstimate:     delta,
		SuspicionSlack: 24 * delta,
	}
}

// simulate builds one single-mutex network of a cell, the one place the
// harness does: cfg as the cell sets it, plus a fresh message recorder,
// returned beside the network.
func simulate(cfg sim.Config) (*sim.Network, *trace.Recorder, error) {
	rec := &trace.Recorder{}
	cfg.Recorder = rec
	w, err := sim.New(cfg)
	return w, rec, err
}

// singleRequestCost measures c(i): the number of messages to fully serve
// one request from node i on a pristine 2^p-open-cube with the token at
// the root, including the final token return.
func singleRequestCost(p int, i ocube.Pos) (int64, error) {
	w, rec, err := simulate(sim.Config{P: p, Seed: 1, Delay: sim.FixedDelay(delta)})
	if err != nil {
		return 0, err
	}
	w.RequestCS(i, 0)
	if !w.RunUntilQuiescent(time.Hour) {
		return 0, fmt.Errorf("harness: no quiescence for request from %v", i)
	}
	return rec.Total(), nil
}

// crashAt returns a grant hook that fail-stops the holder of the nth grant
// it sees inside that critical section and recovers it 400δ later, well
// after the suspicion and enquiry machinery has concluded.
func crashAt(w *sim.Network, nth int) func(ocube.Pos) {
	grants := 0
	return func(x ocube.Pos) {
		if grants++; grants == nth {
			w.Fail(x, 0)
			w.Recover(x, 400*delta)
		}
	}
}

// scatter schedules count requests, each from a uniformly random node at
// a uniformly random instant of [0, horizon).
func scatter(w *sim.Network, rng *rand.Rand, count int, horizon time.Duration) {
	for i := 0; i < count; i++ {
		w.RequestCS(ocube.Pos(rng.Intn(w.N())), time.Duration(rng.Int63n(int64(horizon))))
	}
}

// strike opens one fail/recover episode: it fails a random victim, sends
// one request from a son of the victim within 4δ (it routes through the
// dead node and forces detection) and background random requests within
// spread, and runs the network to quiescence or limit. Recovering the
// victim is the caller's.
func strike(w *sim.Network, rng *rand.Rand, background int, spread, limit time.Duration) (ocube.Pos, bool) {
	victim := ocube.Pos(rng.Intn(w.N()))
	w.Fail(victim, 0)
	var sons []ocube.Pos
	for i := 0; i < w.N(); i++ {
		if x := ocube.Pos(i); !w.Down(x) && w.Node(x).Father() == victim {
			sons = append(sons, x)
		}
	}
	if len(sons) > 0 {
		w.RequestCS(sons[rng.Intn(len(sons))], time.Duration(rng.Int63n(int64(4*delta))))
	}
	for i := 0; i < background; i++ {
		w.RequestCS(ocube.Pos(rng.Intn(w.N())), time.Duration(rng.Int63n(int64(spread))))
	}
	return victim, w.RunUntilQuiescent(limit)
}

// runSchedule replays a request schedule on a network and returns after
// quiescence.
func runSchedule(w *sim.Network, reqs []workload.Request) error {
	for _, r := range reqs {
		w.RequestCS(ocube.Pos(r.Node), r.At)
	}
	if !w.RunUntilQuiescent(24 * time.Hour) {
		return fmt.Errorf("harness: schedule did not quiesce")
	}
	return nil
}

// csTime returns a CS-duration sampler uniform in [0, max).
func csTime(max time.Duration) func(*rand.Rand) time.Duration {
	return func(rng *rand.Rand) time.Duration {
		if max <= 0 {
			return 0
		}
		return time.Duration(rng.Int63n(int64(max)))
	}
}

// table renders rows of columns with right-aligned cells under a header.
func table(header []string, rows [][]string) string {
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, r := range rows {
		for i, c := range r {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, r := range rows {
		writeRow(r)
	}
	return b.String()
}

// newRng returns a seeded generator (shared by tests and tools).
func newRng(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
