package lockspace

import (
	"crypto/sha256"
	"fmt"
	"io"
	"math/rand"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/ocube"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// TestInstanceShard pins the shard router: deterministic, in range,
// consistent with the live-key path, and actually spreading dense ids
// (the reason it re-hashes instead of taking id % shards).
func TestInstanceShard(t *testing.T) {
	const shards = 8
	counts := make([]int, shards)
	for id := uint64(0); id < 4096; id++ {
		s := InstanceShard(id, shards)
		if s < 0 || s >= shards {
			t.Fatalf("InstanceShard(%d, %d) = %d out of range", id, shards, s)
		}
		if s != InstanceShard(id, shards) {
			t.Fatalf("InstanceShard(%d, %d) not deterministic", id, shards)
		}
		counts[s]++
	}
	for s, c := range counts {
		// 4096 ids over 8 shards: a fair hash lands well within 2x of the
		// 512 mean; a modulus-style stripe or a broken fold would not.
		if c < 256 || c > 1024 {
			t.Errorf("shard %d holds %d of 4096 ids: routing badly skewed", s, c)
		}
	}
	if InstanceShard(123, 1) != 0 || InstanceShard(123, 0) != 0 {
		t.Error("degenerate shard counts must route to 0")
	}
	for _, key := range []string{"users/42", "orders/7", ""} {
		if KeyShard(key, shards) != InstanceShard(KeyInstance(key), shards) {
			t.Errorf("KeyShard(%q) disagrees with InstanceShard of its id", key)
		}
	}
}

// sparseProbe runs one crash-bearing keyed schedule on a Space and
// returns every observable the harness reads. Every sent envelope (time,
// from, to, instance, kind) and every grant (time, instance, position) is
// written to out, when it is set, in the order the run produced them.
func sparseProbe(t *testing.T, out io.Writer) (grants, msgs, regens, violations int64, states int, completed bool) {
	t.Helper()
	const p, keys, count = 4, 64, 512
	n := 1 << p
	rec := &trace.Recorder{}
	node := core.Config{
		FT:             true,
		Delta:          time.Millisecond,
		CSEstimate:     time.Millisecond,
		SuspicionSlack: 56 * time.Millisecond,
	}
	cfg := SpaceConfig{
		P:         p,
		Instances: keys,
		Node:      node,
		Seed:      42,
		Delay:     sim.UniformDelay(time.Millisecond/2, time.Millisecond),
		CSTime: func(rng *rand.Rand) time.Duration {
			return time.Duration(rng.Int63n(int64(time.Millisecond)))
		},
		Recorder: rec,
	}
	if out != nil {
		// The Network logs "send <envelope> (delay d)" for every envelope
		// it puts in flight, with the virtual time first.
		cfg.Logf = func(format string, args ...any) {
			if !strings.Contains(format, "] send ") {
				return
			}
			env := args[1].(core.Envelope)
			fmt.Fprintf(out, "s %d %d %d %d %d\n", args[0], env.Msg.From, env.Msg.To, env.Instance, env.Msg.Kind)
		}
	}
	sp, err := NewSpace(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hot := 0
	sp.OnGrant(func(inst int, x ocube.Pos) {
		if out != nil {
			fmt.Fprintf(out, "g %d %d %d\n", sp.Network().Eng.Now(), inst, x)
		}
		if inst == 0 {
			hot++
			if hot == 2 {
				sp.Network().Fail(x, 0)
				sp.Network().Recover(x, 400*time.Millisecond)
			}
		}
	})
	horizon := count * 24 * time.Millisecond
	rng := rand.New(rand.NewSource(42))
	reqs, err := workload.KeyedZipf(rng, n, keys, count, horizon, 1.1)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range reqs {
		sp.Request(r.Key, ocube.Pos(r.Node), r.At)
	}
	completed = sp.Run(horizon + 32000*time.Millisecond)
	return sp.Grants(), rec.Total(), sp.Regenerations(), sp.Violations(), sp.States(), completed
}

// TestSpaceTraceGolden pins the simulated lockspace's whole trace on the
// probe's schedule — crash, Section 5 recovery in instance order, the
// timer wheel — as a digest over every sent envelope and every grant
// (testdata/space_trace_seed42.golden, captured at PR 22, before the
// keyed node became one machine under two drivers): whatever steps the
// instances has to send the same envelopes at the same virtual instants
// in the same order.
func TestSpaceTraceGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/space_trace_seed42.golden")
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	grants, msgs, regens, violations, states, completed := sparseProbe(t, h)
	got := fmt.Sprintf("sha256=%x grants=%d msgs=%d regens=%d violations=%d states=%d completed=%v",
		h.Sum(nil), grants, msgs, regens, violations, states, completed)
	if got != strings.TrimSpace(string(want)) {
		t.Errorf("the probe's trace diverged from the golden:\n got: %s\nwant: %s", got, want)
	}
}

// TestSpaceOnRequestPairsWithGrants pins the accept hook: every accepted
// request is eventually granted on a crash-free run, and accept→grant
// pairs line up per (instance, node).
func TestSpaceOnRequestPairsWithGrants(t *testing.T) {
	const p, keys, count = 3, 8, 64
	n := 1 << p
	sp, err := NewSpace(SpaceConfig{
		P:         p,
		Instances: keys,
		Node:      core.Config{},
		Seed:      7,
		Delay:     sim.FixedDelay(time.Millisecond),
	})
	if err != nil {
		t.Fatal(err)
	}
	accepts, grants := 0, 0
	pending := make(map[[2]int]int)
	sp.OnRequest(func(inst int, x ocube.Pos) {
		accepts++
		pending[[2]int{inst, int(x)}]++
	})
	sp.OnGrant(func(inst int, x ocube.Pos) {
		grants++
		key := [2]int{inst, int(x)}
		if pending[key] == 0 {
			t.Errorf("grant for inst %d at %v without a pending accept", inst, x)
		}
		pending[key]--
	})
	rng := rand.New(rand.NewSource(7))
	for _, r := range workload.KeyedUniform(rng, n, keys, count, count*8*time.Millisecond) {
		sp.Request(r.Key, ocube.Pos(r.Node), r.At)
	}
	if !sp.Run(24 * time.Hour) {
		t.Fatal("no quiescence")
	}
	if accepts == 0 || accepts != grants {
		t.Errorf("accepts=%d grants=%d: accept hook must pair with grants on a crash-free run", accepts, grants)
	}
	for k, v := range pending {
		if v != 0 {
			t.Errorf("unmatched accept for %v", k)
		}
	}
}
