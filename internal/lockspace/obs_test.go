package lockspace

import (
	"bytes"
	"context"
	"encoding/json"
	"maps"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/sim"
)

// Observability wiring tests: live metrics and token lineage, the
// stuck-waiter autopsy on Close, and the forced-stall autopsy of the
// simulated Space — the test-pinned halves of the PR 9 acceptance
// criteria.

// newObsLiveSpace is newLiveSpace with a shared registry and flight
// recorder attached to every node.
func newObsLiveSpace(t *testing.T, p int, reg *obs.Registry, fl *obs.Flight) []*Lockspace {
	t.Helper()
	nodes, _ := newSessMeshSpace(t, p, Config{Metrics: reg, Flight: fl})
	return nodes
}

// TestLiveMetricsAndLineage locks and unlocks through an instrumented
// lockspace and checks the registry counted the grant, the gauges
// settled back to zero, and the flight recorder kept the key's lineage
// ending in a grant.
func TestLiveMetricsAndLineage(t *testing.T) {
	reg := obs.NewRegistry()
	fl := obs.NewFlight(32)
	nodes := newObsLiveSpace(t, 1, reg, fl)
	ctx := context.Background()

	f, err := nodes[1].Lock(ctx, "obs-key")
	if err != nil {
		t.Fatal(err)
	}
	held := reg.Gauge("ocmx_locks_held", "", "node", "1")
	if got := held.Value(); got != 1 {
		t.Errorf("ocmx_locks_held{node=1} while held = %g, want 1", got)
	}
	if err := nodes[1].Unlock("obs-key", f); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("ocmx_lock_grants_total", "", "node", "1").Value(); got != 1 {
		t.Errorf("ocmx_lock_grants_total{node=1} = %d, want 1", got)
	}
	if got := held.Value(); got != 0 {
		t.Errorf("ocmx_locks_held{node=1} after unlock = %g, want 0", got)
	}
	if got := reg.Gauge("ocmx_lock_waiters", "", "node", "1").Value(); got != 0 {
		t.Errorf("ocmx_lock_waiters{node=1} after unlock = %g, want 0", got)
	}

	// Lineage: node 1 starts without the token (it is at node 0), so the
	// journey must include node 1's request and its grant.
	evs := fl.Dump(KeyInstance("obs-key"))
	if len(evs) == 0 {
		t.Fatal("flight recorder kept no lineage for the locked key")
	}
	var sawRequest, sawGrant bool
	for _, ev := range evs {
		switch ev.Kind {
		case "request":
			sawRequest = true
		case "grant":
			if ev.Node != 1 {
				t.Errorf("grant recorded at node %d, want 1", ev.Node)
			}
			if ev.Fence != f {
				t.Errorf("grant lineage fence = %d, Lock returned %d", ev.Fence, f)
			}
			sawGrant = true
		}
	}
	if !sawRequest || !sawGrant {
		t.Errorf("lineage missing request/grant: request=%v grant=%v events=%+v",
			sawRequest, sawGrant, evs)
	}
}

// TestDeadlinesPendingGauge: the number of live deadlines in the node's
// heap is a series, published at the end of every step — so a call that
// has returned has already been counted — and a deadline that is
// cancelled leaves the count with the step that cancelled it.
func TestDeadlinesPendingGauge(t *testing.T) {
	reg := obs.NewRegistry()
	nodes, _ := newSessMeshSpace(t, 0, Config{LeaseTTL: time.Hour, Metrics: reg})
	ls := nodes[0]
	var err error
	pending := reg.Gauge("ocmx_lock_deadlines_pending", "", "node", "0")
	want := func(when string, n float64) {
		t.Helper()
		if got := pending.Value(); got != n {
			t.Errorf("ocmx_lock_deadlines_pending{node=0} %s = %g, want %g", when, got, n)
		}
	}
	want("on an idle node", 0)
	fences := map[string]uint64{}
	for _, key := range []string{"a", "b"} {
		if fences[key], err = ls.Lock(context.Background(), key); err != nil {
			t.Fatal(err)
		}
	}
	want("with two leases running", 2)
	if err := ls.Keepalive("a", fences["a"]); err != nil {
		t.Fatal(err)
	}
	want("after a renewal", 2)
	if err := ls.Unlock("a", fences["a"]); err != nil {
		t.Fatal(err)
	}
	want("with one hold released", 1)
	ls.Close()
	want("after Close", 0)
}

// TestCloseStuckWaiterAutopsy closes a lockspace with a hold and a
// queued waiter still in place: Close must write a JSONL autopsy naming
// the key's instance, its lineage (through the attached flight
// recorder), and the wedged state.
func TestCloseStuckWaiterAutopsy(t *testing.T) {
	sessions, _ := newSessions(t, 2)
	fl := obs.NewFlight(32)
	var autopsy bytes.Buffer
	ls, err := New(Config{
		Node:      core.Config{Self: 0, P: 1},
		Transport: sessions[0],
		Flight:    fl,
		Autopsy:   &autopsy,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := ls.Lock(ctx, "stuck-key"); err != nil {
		t.Fatal(err)
	}
	got := make(chan error, 1)
	go func() { _, err := ls.Lock(ctx, "stuck-key"); got <- err }()
	awaitQueued(t, ls, "stuck-key", 2) // the waiter is behind the holder
	if err := ls.Close(); err != nil {
		t.Fatal(err)
	}
	<-got // the waiter observed ErrClosed; its queue entry is the stuck one

	out := autopsy.String()
	if out == "" {
		t.Fatal("Close with a stuck waiter wrote no autopsy")
	}
	if !strings.Contains(out, `"reason":"lockspace-close-stuck-waiters"`) {
		t.Errorf("autopsy missing reason header:\n%s", out)
	}
	id := KeyInstance("stuck-key")
	if !strings.Contains(out, `"instance":`+itoa(id)) {
		t.Errorf("autopsy does not name instance %d:\n%s", id, out)
	}
	if !strings.Contains(out, `"kind":"grant"`) {
		t.Errorf("autopsy lineage missing the hold's grant:\n%s", out)
	}
	// The state line is the machine's row: the protocol queue under
	// queue_len, the local FIFO — holder and waiter — under waiters.
	st := ls.m.insts[ls.m.index[id]]
	rows := stateLines(t, out)
	if len(rows) != 1 {
		t.Fatalf("autopsy has %d state lines, want the stuck instance's:\n%s", len(rows), out)
	}
	if r := rows[0]; r.Instance != id || r.QueueLen != st.node.QueueLen() || r.Waiters != 2 || !r.Held || !r.InCS {
		t.Errorf("state line %+v, want instance %d held with queue_len %d and 2 waiters", r, id, st.node.QueueLen())
	}
}

// stateLines decodes an autopsy's node-state lines.
func stateLines(t *testing.T, out string) []obs.NodeState {
	t.Helper()
	var rows []obs.NodeState
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		var rec struct {
			Rec string `json:"rec"`
			obs.NodeState
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("autopsy line %q: %v", line, err)
		}
		if rec.Rec == "state" {
			rows = append(rows, rec.NodeState)
		}
	}
	return rows
}

// itoa renders a uint64 without pulling strconv into every assertion.
func itoa(v uint64) string {
	var b [20]byte
	i := len(b)
	for {
		i--
		b[i] = byte('0' + v%10)
		v /= 10
		if v == 0 {
			return string(b[i:])
		}
	}
}

// TestSpaceStallAutopsy forces a simulated stall — the token holder
// fails permanently with FT off, so a requester waits forever — and
// checks the Space autopsy carries the offending key's full lineage
// plus the wedged requester's state.
func TestSpaceStallAutopsy(t *testing.T) {
	fl := obs.NewFlight(32)
	sp, err := NewSpace(SpaceConfig{P: 1, Instances: 1, Seed: 7, Flight: fl})
	if err != nil {
		t.Fatal(err)
	}
	// Node 0 holds every instance's token at birth; with FT off its
	// death is unrecoverable.
	sp.Network().Fail(0, 0)
	sp.Request(0, 1, time.Millisecond)
	if sp.Run(time.Second) {
		t.Fatal("expected the run to stall, but it quiesced")
	}

	var buf bytes.Buffer
	if err := sp.Autopsy(&buf, "forced-stall"); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, `"reason":"forced-stall"`) {
		t.Errorf("autopsy missing reason:\n%s", out)
	}
	if !strings.Contains(out, `"kind":"request"`) {
		t.Errorf("autopsy lineage missing the stalled request:\n%s", out)
	}
	if !strings.Contains(out, `"rec":"state"`) || !strings.Contains(out, `"asking":true`) {
		t.Errorf("autopsy missing the wedged requester's state:\n%s", out)
	}
	// Each state line is its position's machine row: queue_len is the
	// protocol queue, waiters the local FIFO.
	var requester int
	for _, r := range stateLines(t, out) {
		m := sp.peers[r.Node].Machine
		st := m.insts[m.index[r.Instance]]
		if n := st.node; r.QueueLen != n.QueueLen() || r.Waiters != len(st.queue) || r.Father != int(n.Father()) {
			t.Errorf("state line %+v, node %d says queue_len %d, father %d and %d waiters", r, r.Node, n.QueueLen(), n.Father(), len(st.queue))
		}
		if r.Node == 1 && r.Asking && r.Busy && r.Waiters == 1 {
			requester++
		}
	}
	if requester != 1 {
		t.Errorf("no state line shows node 1 asking with its one waiter:\n%s", out)
	}
}

// TestFlightKeepsCallersObserve attaches a flight recorder and a caller's
// own Observe hook together to each of the three constructors that take
// both — sim.New, NewSpace and New — and checks both see every event: the
// recorder must not take the hook's place.
func TestFlightKeepsCallersObserve(t *testing.T) {
	ft := core.Config{FT: true, Delta: time.Millisecond, CSEstimate: time.Millisecond}
	for _, tc := range []struct {
		name string
		want []string // kinds the run must report
		run  func(t *testing.T, node core.Config, fl *obs.Flight)
	}{
		{"sim.New", []string{"request", "grant", "search-started", "search-ended", "regenerated"}, func(t *testing.T, node core.Config, fl *obs.Flight) {
			node.FT, node.Delta, node.CSEstimate = ft.FT, ft.Delta, ft.CSEstimate
			w, err := sim.New(sim.Config{P: 2, Node: node, Seed: 1, Flight: fl})
			if err != nil {
				t.Fatal(err)
			}
			w.Fail(0, 0) // the root dies with the token: searches and a regeneration
			w.RequestCS(1, time.Millisecond)
			w.RequestCS(3, time.Millisecond)
			if !w.RunUntilQuiescent(time.Minute) {
				t.Fatal("network did not quiesce")
			}
		}},
		{"NewSpace", []string{"request", "grant", "transfer"}, func(t *testing.T, node core.Config, fl *obs.Flight) {
			sp, err := NewSpace(SpaceConfig{P: 1, Instances: 2, Node: node, Seed: 1, Flight: fl})
			if err != nil {
				t.Fatal(err)
			}
			sp.Request(0, 1, 0)
			sp.Request(1, 1, 0)
			sp.Request(1, 0, time.Millisecond)
			if !sp.Run(time.Minute) {
				t.Fatal("space did not quiesce")
			}
		}},
		{"New", []string{"request", "grant"}, func(t *testing.T, node core.Config, fl *obs.Flight) {
			nodes, stop := newSessMeshSpace(t, 1, Config{Node: node, Flight: fl})
			f, err := nodes[1].Lock(context.Background(), "k")
			if err != nil {
				t.Fatal(err)
			}
			if err := nodes[1].Unlock("k", f); err != nil {
				t.Fatal(err)
			}
			stop() // every loop has exited: nothing reports any more
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var mu sync.Mutex // the live nodes report from their own loops
			hook := map[string]int{}
			node := core.Config{Observe: func(ev core.TokenEvent) {
				mu.Lock()
				hook[ev.Kind.String()]++
				mu.Unlock()
			}}
			fl := obs.NewFlight(1 << 12)
			tc.run(t, node, fl)
			recorded := map[string]int{}
			for _, inst := range fl.Instances() {
				for _, ev := range fl.Dump(inst) {
					recorded[ev.Kind]++
				}
			}
			mu.Lock()
			defer mu.Unlock()
			for _, kind := range tc.want {
				if hook[kind] == 0 {
					t.Fatalf("the caller's Observe saw %v, want %q among them", hook, kind)
				}
			}
			if !maps.Equal(hook, recorded) {
				t.Errorf("the caller's Observe saw %v, the flight recorder %v", hook, recorded)
			}
		})
	}
}
