package sim

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/ocube"
	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/workload"
)

// This file pins the DESIGN.md §7 fix: the episode-structured storm
// reproducers that stalled before PR 5, and a quiescence fuzz over
// overlapping fail/recover schedules (the steady-state regime E10
// measures). Every scenario here must reach quiescence with mutual
// exclusion intact and at most one live token at rest.

const stormDelta = time.Millisecond

func stormNodeConfig(p int) core.Config {
	return core.Config{
		FT:             true,
		Delta:          stormDelta,
		CSEstimate:     stormDelta,
		SuspicionSlack: 24*stormDelta + time.Duration(8*p)*stormDelta,
	}
}

// liveSonsOf lists the up nodes whose father pointer is x.
func liveSonsOf(w *Network, x ocube.Pos) []ocube.Pos {
	var out []ocube.Pos
	for i := 0; i < w.N(); i++ {
		pos := ocube.Pos(i)
		if !w.Down(pos) && w.Node(pos).Father() == x {
			out = append(out, pos)
		}
	}
	return out
}

// TestSection7StormReproducersQuiesce replays the exact E3-shaped
// fail/recover episode runs that stalled before the §7 fix. Each seed
// below was captured from the pre-fix build as a non-quiescent storm —
// a zombie mandate re-issuing forever against the duplicate-discard
// guards while the obsolete notification died one hop short — at the
// episode noted. All 100 episodes must now quiesce.
func TestSection7StormReproducersQuiesce(t *testing.T) {
	cases := []struct {
		seed         int64
		p            int
		stuckEpisode int // where the pre-fix build stalled
	}{
		{seed: 350, p: 6, stuckEpisode: 1},
		{seed: 309, p: 6, stuckEpisode: 8},
		{seed: 83, p: 6, stuckEpisode: 14},
		{seed: 328, p: 4, stuckEpisode: 23},
		{seed: 263, p: 6, stuckEpisode: 43},
		{seed: 158, p: 6, stuckEpisode: 56},
		{seed: 370, p: 6, stuckEpisode: 60},
		{seed: 64, p: 5, stuckEpisode: 62},
		{seed: 310, p: 6, stuckEpisode: 64},
		{seed: 25, p: 6, stuckEpisode: 76},
		{seed: 389, p: 6, stuckEpisode: 86},
		{seed: 139, p: 6, stuckEpisode: 87},
		{seed: 204, p: 5, stuckEpisode: 96},
		{seed: 162, p: 6, stuckEpisode: 97},
		{seed: 272, p: 6, stuckEpisode: 98},
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("seed%d_p%d", tc.seed, tc.p), func(t *testing.T) {
			n := 1 << tc.p
			rng := rand.New(rand.NewSource(tc.seed))
			// The exact E3 configuration the reproducers were found
			// under: its plain 24δ slack, not the p-scaled one.
			cfg := stormNodeConfig(tc.p)
			cfg.SuspicionSlack = 24 * stormDelta
			w, err := New(Config{
				P:     tc.p,
				Seed:  tc.seed,
				Delay: UniformDelay(stormDelta/2, stormDelta),
				Node:  cfg,
				CSTime: func(rng *rand.Rand) time.Duration {
					return time.Duration(rng.Int63n(int64(stormDelta)))
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			const episodeCap = 100 * time.Second
			for k := 0; k < 100; k++ {
				victim := ocube.Pos(rng.Intn(n))
				w.Fail(victim, 0)
				if sons := liveSonsOf(w, victim); len(sons) > 0 {
					w.RequestCS(sons[rng.Intn(len(sons))], time.Duration(rng.Int63n(int64(4*stormDelta))))
				}
				w.RequestCS(ocube.Pos(rng.Intn(n)), time.Duration(rng.Int63n(int64(8*stormDelta))))
				if !w.RunUntilQuiescent(episodeCap) {
					t.Fatalf("episode %d (fail phase) did not quiesce (pre-fix stall was episode %d)", k, tc.stuckEpisode)
				}
				w.Recover(victim, 0)
				if !w.RunUntilQuiescent(episodeCap) {
					t.Fatalf("episode %d (recover phase) did not quiesce", k)
				}
			}
			if v := w.Violations(); v != 0 {
				t.Errorf("%d mutual-exclusion violations", v)
			}
			if lt := w.LiveTokens(); lt > 1 {
				t.Errorf("%d live tokens at rest, want at most 1", lt)
			}
		})
	}
}

// TestQuiescenceFuzzOverlappingChurn drives seeded continuous churn —
// Poisson crash arrivals with exponential downtimes OVERLAPPING each
// other and the request load, no episode boundaries — and requires every
// run to drain once the churn stops. The harsh cells run crashes faster
// than the suspicion machinery can even detect them, far beyond E10's
// measured regime; liveness must hold regardless.
func TestQuiescenceFuzzOverlappingChurn(t *testing.T) {
	regimes := []struct {
		name                  string
		failGap, down, reqGap time.Duration
	}{
		{"moderate", 100 * stormDelta, 200 * stormDelta, 20 * stormDelta},
		{"harsh", 50 * stormDelta, 100 * stormDelta, 5 * stormDelta},
	}
	seeds := []int64{1, 2, 3, 4}
	for _, p := range []int{4, 5} {
		for _, reg := range regimes {
			for _, seed := range seeds {
				name := fmt.Sprintf("p%d_%s_seed%d", p, reg.name, seed)
				t.Run(name, func(t *testing.T) {
					n := 1 << p
					w, err := New(Config{
						P:     p,
						Seed:  seed,
						Delay: UniformDelay(stormDelta/2, stormDelta),
						Node:  stormNodeConfig(p),
						CSTime: func(rng *rand.Rand) time.Duration {
							return time.Duration(rng.Int63n(int64(stormDelta)))
						},
					})
					if err != nil {
						t.Fatal(err)
					}
					horizon := 3000 * stormDelta
					rng := rand.New(rand.NewSource(seed * 7919))
					reqs := workload.Poisson(rng, n, reg.reqGap, horizon)
					for _, r := range reqs {
						w.RequestCS(ocube.Pos(r.Node), r.At)
					}
					churn := workload.Churn(rng, n, reg.failGap, reg.down, horizon)
					for _, ev := range churn {
						if ev.Recover {
							w.Recover(ocube.Pos(ev.Node), ev.At)
						} else {
							w.Fail(ocube.Pos(ev.Node), ev.At)
						}
					}
					if !w.RunUntilQuiescent(horizon + 60000*stormDelta) {
						t.Fatalf("churn run did not quiesce: grants=%d regens=%d", w.Grants(), w.Regenerations())
					}
					if v := w.Violations(); v != 0 {
						t.Errorf("%d mutual-exclusion violations", v)
					}
					if lt := w.LiveTokens(); lt > 1 {
						t.Errorf("%d live tokens at rest, want at most 1", lt)
					}
				})
			}
		}
	}
}

// TestRootHolderStormPinned pins the repair storm a root's crash inside
// its own critical section sets off — no lender watches that token, so
// the cluster finds its loss only by suspicion and search_father — beside
// a borrower's crash, whose lender's enquiry repairs it cheaply. P=4 under
// sessions over 1% loss, 20 000 uniform requests, one seed: run A crashes
// the first grant holder after grant 500 whose father is None, run B the
// first borrower after grant 500; each recovers 400δ later. Both must
// quiesce with at most one live token and no visible violation, and each
// run's repair-message count and outage (crash → next grant anywhere)
// repeat exactly: a protocol change that moves them updates the pins and
// says why.
func TestRootHolderStormPinned(t *testing.T) {
	const (
		p        = 4
		requests = 20000
		after    = 500
		seed     = 1
	)
	for _, tc := range []struct {
		name   string
		root   bool  // crash a root in its own critical section, else a borrower
		repair int64 // failure-handling messages in the whole run
		outage time.Duration
	}{
		{name: "root-holder", root: true, repair: 645, outage: 1070697139 * time.Nanosecond},
		{name: "borrower", root: false, repair: 47, outage: 117657163 * time.Nanosecond},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n := 1 << p
			horizon := time.Duration(requests*(4*p+8)) * stormDelta
			rec := &trace.Recorder{}
			w, err := New(Config{
				P:        p,
				Seed:     seed,
				Node:     stormNodeConfig(p),
				Delay:    LossyDelay(0.01, UniformDelay(stormDelta/2, stormDelta)),
				Session:  &transport.SessionConfig{RTO: 4 * stormDelta, MaxRTO: 64 * stormDelta},
				Recorder: rec,
				CSTime: func(rng *rand.Rand) time.Duration {
					return time.Duration(rng.Int63n(int64(stormDelta)))
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			crashedAt, outage := time.Duration(-1), time.Duration(-1)
			w.OnGrant(func(x ocube.Pos) {
				now := w.Eng.Now()
				switch {
				case crashedAt >= 0:
					if outage < 0 {
						outage = now - crashedAt
					}
				case w.Grants() > after && (w.Node(x).Father() == ocube.None) == tc.root:
					crashedAt = now
					w.Fail(x, 0)
					w.Recover(x, 400*stormDelta)
				}
			})
			for _, q := range workload.Uniform(rand.New(rand.NewSource(seed)), n, requests, horizon) {
				w.RequestCS(ocube.Pos(q.Node), q.At)
			}
			if !w.RunUntilQuiescent(horizon + 24*time.Hour) {
				t.Fatal("the network did not quiesce")
			}
			if crashedAt < 0 || outage < 0 {
				t.Fatalf("crashed at %v, outage %v: the crash or the grant after it never came", crashedAt, outage)
			}
			if v := w.ViolationsVisible(); v != 0 {
				t.Errorf("%d application-visible mutual-exclusion violations", v)
			}
			if lt := w.LiveTokens(); lt > 1 {
				t.Errorf("%d live tokens at rest, want at most 1", lt)
			}
			repair := rec.Overhead() - rec.Kind(core.KindTokenAck.String())
			if repair != tc.repair || outage != tc.outage {
				t.Errorf("repair %d msgs, outage %v; pinned %d and %v", repair, outage, tc.repair, tc.outage)
			}
		})
	}
}
