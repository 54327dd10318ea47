package lockspace

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/ocube"
	"repro/internal/transport"
)

// startPair starts nodes 0 and 1 of a two-node cube with Start on mesh,
// from a template whose failure handling repairs a dead node in tens of
// milliseconds; stable[i] is node i's store.
func startPair(t *testing.T, mesh *transport.SessMesh, reg *obs.Registry, stable ...StableStore) [2]*Lockspace {
	t.Helper()
	var nodes [2]*Lockspace
	for i := range nodes {
		nodes[i] = startOne(t, mesh, ocube.Pos(i), reg, stable[i])
	}
	return nodes
}

func startOne(t *testing.T, mesh *transport.SessMesh, self ocube.Pos, reg *obs.Registry, stable StableStore) *Lockspace {
	t.Helper()
	ls, err := Start(mesh.Endpoint(self), transport.SessionConfig{}, Config{
		Node: core.Config{
			Self: self, P: 1, FT: true, EpochFence: true,
			Delta: 10 * time.Millisecond, CSEstimate: 10 * time.Millisecond,
			SuspicionSlack: 5 * time.Millisecond,
		},
		Stable:  stable,
		Metrics: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ls.Close() })
	return ls
}

func newMesh(t *testing.T, n int) *transport.SessMesh {
	t.Helper()
	mesh, err := transport.NewSessMesh(n, 4096)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mesh.Close() })
	return mesh
}

// TestStartRestartRecipe is the live restart: the first Start on an
// empty store is cluster birth — boot 1, the token at home, a grant with
// nothing sent — and a second Start on the same store, after the first
// life died holding the lock, is boot 2 and rejoins: its peer, which has
// heard from boot 1, takes its frames as a new incarnation's, and its
// first grant outranks the dead life's fence.
func TestStartRestartRecipe(t *testing.T) {
	mesh := newMesh(t, 2)
	stable0 := NewMemStable()
	nodes := startPair(t, mesh, nil, stable0, NewMemStable())
	if b := nodes[0].Boot(); b != 1 {
		t.Fatalf("first life's boot = %d, want 1", b)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	f1, err := nodes[0].Lock(ctx, "k")
	if err != nil {
		t.Fatal(err)
	}
	if st := nodes[0].sess.Stats(); st.Frames != 0 {
		t.Fatalf("a grant at home on a first life sent %d frames, want none: it did not start at cluster birth", st.Frames)
	}
	// Node 1 hears from boot 1 before it dies.
	f, err := nodes[1].Lock(ctx, "warm")
	if err != nil {
		t.Fatal(err)
	}
	if err := nodes[1].Unlock("warm", f); err != nil {
		t.Fatal(err)
	}
	if err := nodes[0].Close(); err != nil { // dies holding k
		t.Fatal(err)
	}

	again := startOne(t, mesh, 0, nil, stable0)
	if b := again.Boot(); b != 2 {
		t.Fatalf("second life's boot = %d, want 2", b)
	}
	f2, err := again.Lock(ctx, "k")
	if err != nil {
		t.Fatalf("the second life could not reclaim the lock: %v", err)
	}
	if f2 <= f1 {
		t.Fatalf("second life's fence = %#x, want above the dead life's %#x", f2, f1)
	}
	if err := again.Unlock("k", f2); err != nil {
		t.Fatal(err)
	}
	if st := nodes[1].sess.Stats(); st.StaleBootDrops != 0 {
		t.Errorf("node 1 dropped %d frames of node 0's second life as stale", st.StaleBootDrops)
	}
	if st := again.sess.Stats(); st.Frames == 0 {
		t.Error("the rejoin sent nothing: it did not search for the living structure")
	}
}

// TestRestartRepointsSessionSeries: a node started again in the same
// registry exports its new session's counters under the same series,
// which restart with it.
func TestRestartRepointsSessionSeries(t *testing.T) {
	mesh := newMesh(t, 2)
	reg := obs.NewRegistry()
	stable1 := NewMemStable()
	nodes := startPair(t, mesh, reg, nil, stable1)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	f, err := nodes[1].Lock(ctx, "k")
	if err != nil {
		t.Fatal(err)
	}
	if err := nodes[1].Unlock("k", f); err != nil {
		t.Fatal(err)
	}
	if nodes[1].sess.Stats().Frames == 0 {
		t.Fatal("a remote grant sent no frames")
	}
	nodes[1].Close()
	again := startOne(t, mesh, 1, reg, stable1)
	var prom bytes.Buffer
	if err := reg.WriteProm(&prom); err != nil {
		t.Fatal(err)
	}
	for _, line := range []string{
		`ocmx_session_frames_total{node="1"} ` + itoa(uint64(again.sess.Stats().Frames)),
		`ocmx_session_receipts_total{node="1"} 0`,
		`ocmx_session_retransmits_total{node="1",peer="0"} 0`,
		`ocmx_session_dup_drops_total{node="0",peer="1"} `,
	} {
		if !strings.Contains(prom.String(), "\n"+line) {
			t.Errorf("scrape lacks %q:\n%s", line, prom.String())
		}
	}
	if strings.Contains(prom.String(), `{node="0",peer="0"}`) || strings.Contains(prom.String(), `{node="1",peer="1"}`) {
		t.Errorf("a node exports a series for itself as its own peer:\n%s", prom.String())
	}
}
