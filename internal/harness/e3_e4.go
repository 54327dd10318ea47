package harness

import (
	"fmt"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/ocube"
	"repro/internal/sim"
)

// E3Row is one line of the failure-overhead experiment (paper Section 6:
// 8 msg/failure at N=32 over 300 failures, 9.75 at N=64 over 200).
type E3Row struct {
	N             int
	Failures      int
	PaperMode     bool    // single-sweep regeneration (paper-faithful, racy)
	Stuck         int     // episodes abandoned as non-quiescent (see DESIGN.md §7)
	RepairPerFail float64 // overhead to detect + repair a failure (paper's number)
	RejoinPerFail float64 // overhead for the recovered node to rejoin
	AcksPerFail   float64 // token-ack guardianship cost (our extension)
	Regenerations int64
	Grants        int64
	Violations    int64
}

// strict is what -strict fails an E3 row on: any stuck episode, and any
// violation outside paper mode — the single-sweep ablation is known racy.
func (r E3Row) strict() error {
	if r.Stuck != 0 {
		return fmt.Errorf("strict: e3 N=%d reported %d stuck episodes", r.N, r.Stuck)
	}
	if !r.PaperMode && r.Violations != 0 {
		return fmt.Errorf("strict: e3 N=%d reported %d violations", r.N, r.Violations)
	}
	return nil
}

// E3Size is one (cube order, failure count) coordinate of the E3 sweep.
type E3Size struct{ P, Failures int }

// E3Overheads runs every size twice — the safe row, then the paper-mode
// row under it, as the table has always been laid out. Each cell is one
// fully sequential fail/recover episode run with its own seeded network.
func E3Overheads(o Options, sizes []E3Size) ([]E3Row, error) {
	return forEach(o.Workers, 2*len(sizes), func(i int) (E3Row, error) {
		return E3FailureOverhead(o, sizes[i/2].P, sizes[i/2].Failures, i%2 == 1)
	})
}

// E3FailureOverhead replays the paper's protocol: repeated fail/recover
// episodes under light request load, counting the overhead messages
// (test, test-reply, enquiry, enquiry-reply, anomaly, obsolete and
// re-issued requests) per failure. The count is split into the repair
// phase (suspicion, search_father by the affected askers, token
// regeneration — what the paper reports per failure) and the rejoin
// phase (the recovered node's own reconnection search). Token
// acknowledgments — this implementation's transfer-guardian extension,
// absent from the paper — are reported separately because they scale
// with normal load, not with failures. paperMode is ablation A5:
// single-sweep regeneration as the paper specifies, cheaper on root
// failures but exposed to the moving-token regeneration race.
func E3FailureOverhead(o Options, p, failures int, paperMode bool) (E3Row, error) {
	rng := newRng(o.Seed)
	nodeCfg := ftNodeConfig()
	nodeCfg.DisableConfirmSweep = paperMode
	w, rec, err := simulate(sim.Config{P: p, Seed: o.Seed,
		Delay: sim.UniformDelay(delta/2, delta), Node: nodeCfg, CSTime: csTime(delta)})
	if err != nil {
		return E3Row{}, err
	}

	overhead := func() int64 {
		return rec.Overhead() - rec.Kind("token-ack")
	}

	row := E3Row{N: 1 << p, Failures: failures, PaperMode: paperMode}
	var repair, rejoin int64
	done := 0
	const episodeCap = 100 * time.Second // virtual; repairs finish in <1s
	for k := 0; k < failures; k++ {
		// A small burst of load so the failure is exercised: a son's
		// request through the victim plus one background request.
		before := overhead()
		victim, quiesced := strike(w, rng, 1, 8*delta, episodeCap)
		if !quiesced {
			// A rare (<1%) stale-duplicate circulation can stall an
			// episode (DESIGN.md §7, residual); abandon the network and
			// report the episode as stuck rather than bias the averages.
			row.Stuck++
			break
		}
		repair += overhead() - before

		before = overhead()
		w.Recover(victim, 0)
		if !w.RunUntilQuiescent(episodeCap) {
			row.Stuck++
			break
		}
		rejoin += overhead() - before
		done++
	}
	if done == 0 {
		return row, fmt.Errorf("harness: e3 had no completed episodes")
	}
	row.Failures = done
	row.RepairPerFail = float64(repair) / float64(done)
	row.RejoinPerFail = float64(rejoin) / float64(done)
	row.AcksPerFail = float64(rec.Kind("token-ack")) / float64(done)
	row.Regenerations = w.Regenerations()
	row.Grants = w.Grants()
	row.Violations = w.Violations()
	return row, nil
}

// formatE3 renders the E3 table with the paper's reference points.
func formatE3(rows []E3Row) string {
	header := []string{"N", "failures", "mode", "repair msgs/failure", "rejoin msgs/failure", "acks/failure", "regens", "grants", "violations", "paper repair"}
	body := make([][]string, len(rows))
	for i, r := range rows {
		paper := "-"
		switch r.N {
		case 32:
			paper = "8.00"
		case 64:
			paper = "9.75"
		}
		mode := "safe (double sweep)"
		if r.PaperMode {
			mode = "paper (single sweep)"
		}
		body[i] = []string{
			strconv.Itoa(r.N),
			strconv.Itoa(r.Failures),
			mode,
			fmt.Sprintf("%.2f", r.RepairPerFail),
			fmt.Sprintf("%.2f", r.RejoinPerFail),
			fmt.Sprintf("%.2f", r.AcksPerFail),
			strconv.FormatInt(r.Regenerations, 10),
			strconv.FormatInt(r.Grants, 10),
			strconv.FormatInt(r.Violations, 10),
			paper,
		}
	}
	return "E3 — failure handling overhead (paper: 8 msg/failure at N=32, 9.75 at N=64)\n" +
		table(header, body)
}

// E4Row is one line of the search_father cost experiment (paper Section
// 5: O(log2 N) tested nodes on average, the whole cube in the worst
// case). Reconnection searches (a new father exists and is found) are
// reported separately from exhaustion searches (the root died with the
// token and the searcher must probe everyone, twice under this
// implementation's confirmation-sweep rule, before regenerating).
type E4Row struct {
	N              int
	Trials         int
	MeanReconnect  float64 // tested nodes when a father was found
	MaxReconnect   float64
	MeanExhaustion float64 // tested nodes when the search elected a root
	Log2N          int
}

// searchOutcome is one search_father conclusion (core.TokenEvSearchEnded)
// of an E4 trial.
type searchOutcome struct {
	father ocube.Pos
	tested int
}

// E4SearchCost isolates one search_father per trial: a random node's
// father fails and the node requests, forcing the reconnection search;
// the tested-node count comes from the node's TokenEvSearchEnded report.
// The requesters are drawn up front from the per-order generator in trial
// order — exactly the draws the sequential loop makes — then the trials,
// each an independently seeded network, run as cells on the sweep pool
// and their observations are folded in trial order.
func E4SearchCost(o Options, ps []int, trials int) ([]E4Row, error) {
	return forEach(o.Workers, len(ps), func(pi int) (E4Row, error) {
		p := ps[pi]
		n := 1 << p
		rng := newRng(o.Seed + int64(p))
		requesters := make([]ocube.Pos, trials)
		for trial := range requesters {
			requesters[trial] = ocube.Pos(1 + rng.Intn(n-1)) // any non-root
		}
		perTrial, err := forEach(o.Workers, trials, func(trial int) ([]searchOutcome, error) {
			requester := requesters[trial]
			victim := ocube.InitialFather(requester)
			var got []searchOutcome
			node := ftNodeConfig()
			node.Observe = func(ev core.TokenEvent) {
				if ev.Kind == core.TokenEvSearchEnded && ev.Self == requester {
					got = append(got, searchOutcome{father: ev.Peer, tested: int(ev.Seq)})
				}
			}
			w, _, err := simulate(sim.Config{P: p, Seed: o.Seed ^ int64(trial), Delay: sim.FixedDelay(delta), Node: node})
			if err != nil {
				return nil, err
			}
			w.Fail(victim, 0)
			w.RequestCS(requester, delta)
			if !w.RunUntilQuiescent(24 * time.Hour) {
				return nil, fmt.Errorf("harness: e4 trial did not quiesce")
			}
			return got, nil
		})
		if err != nil {
			return E4Row{}, err
		}
		reconnect := &metrics.Summary{}
		exhaust := &metrics.Summary{}
		for _, got := range perTrial {
			for _, e := range got {
				if e.father == ocube.None {
					exhaust.Observe(float64(e.tested))
				} else {
					reconnect.Observe(float64(e.tested))
				}
			}
		}
		return E4Row{
			N:              n,
			Trials:         trials,
			MeanReconnect:  reconnect.Mean(),
			MaxReconnect:   reconnect.Max(),
			MeanExhaustion: exhaust.Mean(),
			Log2N:          p,
		}, nil
	})
}

// formatE4 renders the E4 table.
func formatE4(rows []E4Row) string {
	header := []string{"N", "trials", "mean tested (reconnect)", "max (reconnect)", "mean tested (exhaustion)", "log2 N", "N-1"}
	body := make([][]string, len(rows))
	for i, r := range rows {
		body[i] = []string{
			strconv.Itoa(r.N),
			strconv.Itoa(r.Trials),
			fmt.Sprintf("%.2f", r.MeanReconnect),
			fmt.Sprintf("%.0f", r.MaxReconnect),
			fmt.Sprintf("%.1f", r.MeanExhaustion),
			strconv.Itoa(r.Log2N),
			strconv.Itoa(r.N - 1),
		}
	}
	return "E4 — search_father tested nodes (paper: O(log2 N) average, whole cube worst case)\n" +
		table(header, body)
}
