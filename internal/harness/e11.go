package harness

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/lockspace"
	"repro/internal/obs"
	"repro/internal/ocube"
	"repro/internal/sim"
	"repro/internal/transport"
	"repro/internal/workload"
)

// E11 — lossy-channel recovery with sessions and fencing (PR 6). The
// paper assumes reliable channels (Section 2); E8 measured what raw loss
// does to the protocol when that assumption breaks. E11 measures the two
// mechanisms this repository adds to close the gap, separately and
// together, across a loss sweep with and without a crash of a
// critical-section holder:
//
//   - sessions (sim.Config.Session / transport.Session): retransmission
//     with exponential backoff plus sliding-window dedup rebuilds the
//     reliable channel under the protocol, so loss costs retransmissions
//     instead of watchdog searches and token regenerations;
//   - fencing (core.Grant.Fence): every grant carries a token composed of
//     the token's regeneration epoch and a grant counter, so when a
//     regeneration races a live token — the one safety residue loss can
//     cause — the two holders' grants carry distinct fences and a
//     fence-checking resource rejects the stale one. The violation
//     column splits accordingly: "visible" counts overlaps where another
//     active holder held an equal fence (an application-level incident),
//     "fenced" counts overlaps a FenceGate turns into non-events.
//
// The headline gate: with sessions on, every row completes with zero
// application-visible violations. Session-off rows document what each
// loss rate costs in regenerations and fenced-out overlap windows.

// E11LossProbs is the loss sweep, per-message independent loss.
var E11LossProbs = []float64{0.001, 0.005, 0.01, 0.02, 0.05}

// e11Session returns the session tuning used by every E11 session-on
// cell: RTO beyond the UniformDelay(δ/2, δ) round trip so healthy
// traffic never retransmits spuriously, capped backoff well under the
// suspicion machinery's patience.
func e11Session() *transport.SessionConfig {
	return &transport.SessionConfig{RTO: 4 * delta, MaxRTO: 64 * delta}
}

// E11Row is one (loss, crash, session) measurement.
type E11Row struct {
	Loss     float64 // per-message loss probability
	Crash    bool    // a CS holder fail-stops mid-section and recovers later
	Session  bool    // the reliable session layer is interposed
	Requests int
	Grants   int64
	Regens   int64 // token regenerations
	Lost     int64 // physical losses (frames in transit + at failed nodes)
	// Session repair work (zero when Session is off).
	Retransmits int64
	DupDrops    int64
	// Who acknowledged the unlent tokens (not in the table; ocmxbench -obs
	// exports both): TokenAcks is the KindTokenAck messages put on the
	// wire, Receipts the acknowledgments the sessions gave their own nodes
	// instead. A session-on cell sends no token-ack at all.
	TokenAcks int64
	Receipts  int64
	// Mutual-exclusion overlaps, classified by fence: Visible overlaps
	// carried equal fences (application-level incident), Fenced carried
	// distinct ones (a fence-checking resource rejects the stale holder).
	Fenced    int64
	Visible   int64
	Completed bool
	msgs      int64 // physical transmissions (retransmits included), the gate's events
}

// strict is the headline gate: with sessions on, fencing leaves no
// application-visible violation and every run completes.
func (r E11Row) strict() error {
	if r.Session && (!r.Completed || r.Visible != 0) {
		return fmt.Errorf("strict: e11 loss=%g crash=%v session=on completed=%v visible=%d",
			r.Loss, r.Crash, r.Completed, r.Visible)
	}
	return nil
}

// e11Export records where the token acknowledgments went: on the wire as
// token-ack messages without sessions, inside the sender's session as
// receipts with them.
func e11Export(reg *obs.Registry, rows []E11Row) {
	for _, r := range rows {
		labels := []string{"loss", strconv.FormatFloat(r.Loss, 'g', -1, 64),
			"crash", strconv.FormatBool(r.Crash), "session", strconv.FormatBool(r.Session)}
		reg.Counter("ocmx_e11_token_acks_total",
			"Token-ack messages put on the simulated wire, per E11 cell.", labels...).Add(r.TokenAcks)
		reg.Counter("ocmx_e11_session_receipts_total",
			"Token acknowledgments the sessions gave their own nodes, per E11 cell.", labels...).Add(r.Receipts)
	}
}

// E11LossyRecovery sweeps loss × crash × session over the fault-tolerant
// open cube on 2^p nodes. All cells share one seeded schedule and run
// concurrently on the sweep pool.
func E11LossyRecovery(o Options, p int) ([]E11Row, error) {
	reqs := faultSchedule(o, p)
	type cell struct {
		loss           float64
		crash, session bool
	}
	var cells []cell
	for _, loss := range E11LossProbs {
		for _, crash := range []bool{false, true} {
			for _, session := range []bool{false, true} {
				cells = append(cells, cell{loss: loss, crash: crash, session: session})
			}
		}
	}
	return forEach(o.Workers, len(cells), func(i int) (E11Row, error) {
		c := cells[i]
		row, err := runE11(o, p, reqs, c.loss, c.crash, c.session)
		if err != nil {
			err = fmt.Errorf("harness: e11 loss=%g crash=%v session=%v: %w", c.loss, c.crash, c.session, err)
		}
		return row, err
	})
}

func runE11(o Options, p int, reqs []workload.Request, loss float64, crash, session bool) (E11Row, error) {
	row := E11Row{Loss: loss, Crash: crash, Session: session, Requests: len(reqs)}
	cfg := sim.Config{
		P:      p,
		Node:   ftNodeConfig(),
		Seed:   o.Seed,
		Delay:  sim.LossyDelay(loss, sim.UniformDelay(delta/2, delta)),
		CSTime: csTime(delta),
	}
	if session {
		cfg.Session = e11Session()
	}
	w, rec, err := simulate(cfg)
	if err != nil {
		return row, err
	}
	if crash {
		w.OnGrant(crashAt(w, 2))
	}
	for _, r := range reqs {
		w.RequestCS(ocube.Pos(r.Node), r.At)
	}
	row.Completed = w.RunUntilQuiescent(24 * time.Hour)
	row.Grants = w.Grants()
	row.Regens = w.Regenerations()
	row.Lost = w.LostInTransit() + w.LostToFailed()
	st := w.SessionStats()
	row.Retransmits = st.Retransmits
	row.DupDrops = st.DupDrops
	row.Receipts = st.Receipts
	row.TokenAcks = rec.Kind(core.KindTokenAck.String())
	row.msgs = rec.Total()
	row.Fenced = w.ViolationsFenced()
	row.Visible = w.ViolationsVisible()
	return row, nil
}

// formatE11 renders the recovery sweep grouped by loss rate.
func formatE11(rows []E11Row) string {
	header := []string{"loss", "crash", "session", "requests", "grants", "regens", "lost", "retrans", "dups", "fenced", "visible", "outcome"}
	body := make([][]string, len(rows))
	onOff := func(b bool) string {
		if b {
			return "on"
		}
		return "off"
	}
	for i, r := range rows {
		outcome := "completed"
		if !r.Completed {
			outcome = "STALLED"
		}
		body[i] = []string{
			fmt.Sprintf("%.1f%%", r.Loss*100),
			onOff(r.Crash),
			onOff(r.Session),
			strconv.Itoa(r.Requests),
			strconv.FormatInt(r.Grants, 10),
			strconv.FormatInt(r.Regens, 10),
			strconv.FormatInt(r.Lost, 10),
			strconv.FormatInt(r.Retransmits, 10),
			strconv.FormatInt(r.DupDrops, 10),
			strconv.FormatInt(r.Fenced, 10),
			strconv.FormatInt(r.Visible, 10),
			outcome,
		}
	}
	return "E11: lossy-channel recovery — sessions × fencing × crash (FT open cube)\n" + table(header, body)
}

// e11LeaseReclaim measures the live lease-reclaim path on loopback
// wall-clock time: four lockspace nodes over a lossy in-memory frame
// link wrapped in reliable sessions, a holder that goes silent (no
// unlock, no heartbeat), and a waiter on another node timed from request
// to reclaimed grant. Returns that latency. The holder's later unlock
// must report lockspace.ErrLeaseExpired and the reclaiming fence must
// outrank the lapsed one, or an error is returned.
//
// Being wall-clock, the latency is environment-dependent (roughly the
// TTL plus scheduling and exit-protocol time) and is reported on stderr
// by ocmxbench, keeping stdout byte-identical across runs.
func e11LeaseReclaim(ttl time.Duration) (time.Duration, error) {
	const p = 2
	n := 1 << p
	mesh, err := transport.NewSessMesh(n, 4096)
	if err != nil {
		return 0, err
	}
	// Deterministic loss on the live path: every 7th data frame vanishes;
	// the sessions repair it.
	var dropMu sync.Mutex
	nData := 0
	mesh.Drop = func(to ocube.Pos, f transport.SessFrame) bool {
		if f.Seq == 0 {
			return false
		}
		dropMu.Lock()
		defer dropMu.Unlock()
		nData++
		return nData%7 == 0
	}
	defer mesh.Close()

	nodes := make([]*lockspace.Lockspace, n)
	for i := range nodes {
		ls, err := lockspace.Start(mesh.Endpoint(ocube.Pos(i)), transport.SessionConfig{RTO: 20 * time.Millisecond},
			lockspace.Config{Node: core.Config{Self: ocube.Pos(i), P: p}, LeaseTTL: ttl})
		if err != nil {
			return 0, err
		}
		defer ls.Close()
		nodes[i] = ls
	}

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	const key = "lease-reclaim"
	f1, err := nodes[3].Lock(ctx, key)
	if err != nil {
		return 0, fmt.Errorf("holder lock: %w", err)
	}
	// The holder goes silent. A waiter on node 1 must be served once the
	// lease lapses and the hold is reclaimed through the exit protocol.
	// This is the live half of E11, so the latency is wall time by
	// nature; it is measured through the obs layer (the replay domain
	// never calls time.Now itself) and reported on stderr only.
	start := obs.StartStopwatch()
	f2, err := nodes[1].Lock(ctx, key)
	latency := start.Elapsed()
	if err != nil {
		return 0, fmt.Errorf("waiter after lapsed lease: %w", err)
	}
	if f2 <= f1 {
		return 0, fmt.Errorf("reclaiming fence %d does not outrank lapsed fence %d", f2, f1)
	}
	if err := nodes[3].Unlock(key, f1); !errors.Is(err, lockspace.ErrLeaseExpired) {
		return 0, fmt.Errorf("lapsed holder's unlock = %v, want ErrLeaseExpired", err)
	}
	if err := nodes[1].Unlock(key, f2); err != nil {
		return 0, fmt.Errorf("reclaimer unlock: %w", err)
	}
	return latency, nil
}
