package lockspace

import (
	"errors"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/ocube"
)

// Machine tests: the keyed node under virtual time. A rig owns 2^p
// machines, the clock and a scripted link — every envelope a machine sends
// waits in flight until the test delivers it — and audits every machine's
// books after every step. Nothing here sleeps or runs a goroutine: what
// the live tests can only approach with timeouts (a lease lapsing, a
// cancel racing its grant) is an exact sequence of inputs.

// rigDriver is the driver of one rig machine: it records the holds that
// begin and end, and makes each last ttl (negative: no deadline).
type rigDriver struct {
	rig  *rig
	self ocube.Pos
}

// rigHold is one hold as the rig's drivers saw it.
type rigHold struct {
	node   ocube.Pos
	id     uint64
	fence  uint64
	who    any
	ended  bool
	lapsed bool
}

func (d *rigDriver) granted(id, fence uint64, who any) time.Duration {
	r := d.rig
	if last := r.fences[id]; fence <= last {
		r.t.Errorf("instance %d granted under fence %d after %d: fences must rise", id, fence, last)
	}
	r.fences[id] = fence
	if h := r.holder[id]; h != nil {
		r.t.Errorf("instance %d granted to %v at node %d while %v holds it at node %d", id, who, d.self, h.who, h.node)
	}
	h := &rigHold{node: d.self, id: id, fence: fence, who: who}
	r.holder[id] = h
	r.holds = append(r.holds, h)
	return r.ttl
}

func (d *rigDriver) ended(id, fence uint64, lapsed bool) {
	h := d.rig.holder[id]
	if h == nil || h.node != d.self || h.fence != fence {
		d.rig.t.Errorf("node %d ended a hold of instance %d under fence %d that is not the current one (%+v)", d.self, id, fence, h)
		return
	}
	h.ended, h.lapsed = true, lapsed
	delete(d.rig.holder, id)
}

type rig struct {
	t      *testing.T
	now    time.Duration
	ttl    time.Duration
	ms     []*Machine
	stores []*MemStable
	link   []core.Envelope // in flight, oldest first
	aims   []int           // how often each machine had its driver set the timer
	down   []bool          // crashed and not yet recovered

	holds  []*rigHold          // every hold ever begun, in order
	holder map[uint64]*rigHold // the current hold of each instance
	fences map[uint64]uint64   // the last fence granted per instance
}

// newRig builds 2^p machines from tmpl; each gets a MemStable when stable
// is set.
func newRig(t *testing.T, p int, tmpl core.Config, ttl time.Duration, stable bool) *rig {
	t.Helper()
	r := &rig{t: t, ttl: ttl, holder: map[uint64]*rigHold{}, fences: map[uint64]uint64{}}
	for i := 0; i < 1<<p; i++ {
		tmpl.Self, tmpl.P = ocube.Pos(i), p
		var store StableStore
		if stable {
			r.stores = append(r.stores, NewMemStable())
			store = r.stores[i]
		}
		m, err := NewMachine(tmpl, false, store, &rigDriver{rig: r, self: ocube.Pos(i)})
		if err != nil {
			t.Fatal(err)
		}
		r.ms = append(r.ms, m)
	}
	r.aims, r.down = make([]int, len(r.ms)), make([]bool, len(r.ms))
	return r
}

// step closes one input to machine x the way a driver does: stable
// storage is saved, what it sent goes in flight, the timer is aimed — and
// every machine's books are audited.
func (r *rig) step(x int) {
	r.t.Helper()
	out, saves := r.ms[x].Drain()
	for _, w := range saves {
		r.stores[x].Save(w.Instance, w.State)
	}
	r.link = append(r.link, out...)
	if at, ok := r.ms[x].Aim(); ok {
		r.aims[x]++
		if earliest, _ := r.ms[x].wheel.earliest(); at != earliest {
			r.t.Errorf("node %d aims at %v, its earliest deadline is %v", x, at, earliest)
		}
	}
	r.audit()
}

// deliver hands the oldest envelope in flight to its destination.
func (r *rig) deliver() {
	r.t.Helper()
	env := r.link[0]
	r.link = r.link[1:]
	r.ms[env.Msg.To].Envelope(r.now, env)
	r.step(int(env.Msg.To))
}

// settle delivers until nothing is in flight.
func (r *rig) settle() {
	r.t.Helper()
	for n := 0; len(r.link) > 0; n++ {
		if n == 10000 {
			r.t.Fatal("the link never drains")
		}
		r.deliver()
	}
}

// advance moves the clock and fires the timer of every machine whose
// aim has come due.
func (r *rig) advance(d time.Duration) {
	r.t.Helper()
	r.now += d
	for x, m := range r.ms {
		if m.aimed && m.aimedAt <= r.now {
			m.Tick(r.now)
			r.step(x)
		}
	}
}

func (r *rig) lock(x int, id uint64, who any) {
	r.t.Helper()
	if err := r.ms[x].Lock(r.now, id, who); err != nil {
		r.t.Fatalf("node %d Lock(%d, %v): %v", x, id, who, err)
	}
	r.step(x)
}

func (r *rig) unlock(x int, id, fence uint64) error {
	r.t.Helper()
	err := r.ms[x].Unlock(r.now, id, fence)
	r.step(x)
	return err
}

func (r *rig) cancel(x int, id uint64, who any) {
	r.t.Helper()
	r.ms[x].Cancel(r.now, id, who)
	r.step(x)
}

// audit checks every machine's books against what it holds: the counts,
// a heap of live deadlines only, and no caller kept alive by a queue slot
// nobody waits in.
func (r *rig) audit() {
	r.t.Helper()
	for x, m := range r.ms {
		var want Books
		for _, st := range m.insts {
			want.Waiting += len(st.queue)
			if st.held {
				want.Held++
				if len(st.queue) == 0 || st.queue[0].abandoned {
					r.t.Errorf("node %d instance %d is held with no live head", x, st.node.Instance())
				}
			}
			if st.busy != (st.node.Busy() && !r.down[x]) {
				r.t.Errorf("node %d instance %d: busy bit %v, node says %v", x, st.node.Instance(), st.busy, st.node.Busy())
			}
			if st.busy {
				want.Busy++
			}
			for _, w := range st.queue[len(st.queue):cap(st.queue)] {
				if w != (waiter{}) {
					r.t.Errorf("node %d instance %d: a vacated queue slot still holds %+v", x, st.node.Instance(), w)
				}
			}
		}
		for _, ent := range m.wheel.ents {
			st := m.insts[ent.ref]
			switch {
			case ent.kind == wheelHold && st.held:
			case ent.kind != wheelHold && ent.gen == st.node.TimerGen(ent.kind):
			default:
				r.t.Errorf("node %d holds a dead deadline %+v", x, ent)
			}
		}
		got := m.Books()
		want.States, want.Pending = len(m.insts), len(m.wheel.ents)
		want.Regenerations, want.StaleTokens = got.Regenerations, got.StaleTokens
		if got != want {
			r.t.Errorf("node %d books = %+v, its instances say %+v", x, got, want)
		}
	}
}

// queued returns how many local waiters instance id has at m, holder
// included, as its state row reports them.
func queued(m *Machine, id uint64) int {
	for _, row := range m.States(func(row obs.NodeState) bool { return row.Instance == id }) {
		return row.Waiters
	}
	return 0
}

// lastHold returns the most recent hold, which must be who's.
func (r *rig) lastHold(who any) *rigHold {
	r.t.Helper()
	if len(r.holds) == 0 || r.holds[len(r.holds)-1].who != who {
		r.t.Fatalf("the last hold is not %v's: %d holds so far", who, len(r.holds))
	}
	return r.holds[len(r.holds)-1]
}

// TestMachineLeaseLapseReclaims: a holder that neither unlocks nor renews
// loses its hold at the deadline, through the ordinary exit protocol —
// the waiter at the other node is served under a higher fence — and the
// zombie's later Unlock and Keepalive report ErrLeaseExpired.
func TestMachineLeaseLapseReclaims(t *testing.T) {
	const id, ttl = 7, 100 * time.Millisecond
	r := newRig(t, 1, core.Config{}, ttl, false)
	r.lock(1, id, "zombie")
	r.settle()
	zombie := r.lastHold("zombie")
	r.lock(0, id, "next")
	r.settle()
	if len(r.holds) != 1 {
		t.Fatalf("%d holds while the first one lasts, want 1", len(r.holds))
	}
	r.advance(ttl - 1)
	if zombie.ended {
		t.Fatal("the hold ended before its deadline")
	}
	r.advance(1)
	r.settle()
	if !zombie.ended || !zombie.lapsed {
		t.Fatalf("at its deadline the hold is %+v, want ended and lapsed", zombie)
	}
	next := r.lastHold("next")
	if next.node != 0 || next.fence <= zombie.fence {
		t.Errorf("reclaiming hold %+v, want node 0 under a fence above %d", next, zombie.fence)
	}
	if err := r.unlock(1, id, zombie.fence); !errors.Is(err, ErrLeaseExpired) {
		t.Errorf("the zombie's Unlock = %v, want ErrLeaseExpired", err)
	}
	if err := r.ms[1].Keepalive(r.now, id, zombie.fence, ttl); !errors.Is(err, ErrLeaseExpired) {
		t.Errorf("the zombie's Keepalive = %v, want ErrLeaseExpired", err)
	}
	if err := r.unlock(1, id, 0); !errors.Is(err, ErrNotLocked) {
		t.Errorf("Unlock of no hold at all = %v, want ErrNotLocked", err)
	}
	if err := r.unlock(0, id, next.fence); err != nil {
		t.Errorf("the live holder's Unlock = %v", err)
	}
}

// TestMachineKeepaliveMovesDeadlineNotHeap: a renewal moves the deadline
// the pending check compares against and leaves the heap alone; the check
// that then fires at the old deadline finds the hold renewed and re-arms
// for the remainder.
func TestMachineKeepaliveMovesDeadlineNotHeap(t *testing.T) {
	const id, ttl = 3, 100 * time.Millisecond
	r := newRig(t, 0, core.Config{}, ttl, false)
	m := r.ms[0]
	r.lock(0, id, "a")
	hold := r.lastHold("a")
	r.advance(60 * time.Millisecond)
	heap, seq := m.wheel.ents[0], m.wheel.seq
	if err := m.Keepalive(r.now, id, hold.fence, ttl); err != nil {
		t.Fatal(err)
	}
	r.step(0)
	if len(m.wheel.ents) != 1 || m.wheel.ents[0] != heap || m.wheel.seq != seq {
		t.Errorf("Keepalive touched the heap: %+v (seq %d), was %+v (seq %d)", m.wheel.ents, m.wheel.seq, heap, seq)
	}
	if r.aims[0] != 1 {
		t.Errorf("the timer was set %d times for one grant and one renewal, want once", r.aims[0])
	}
	r.advance(40 * time.Millisecond) // the old deadline
	if hold.ended {
		t.Fatal("a renewed hold lapsed at its old deadline")
	}
	if r.aims[0] != 2 || m.aimedAt != 160*time.Millisecond {
		t.Errorf("after the check at the old deadline the timer was set %d times, last for %v, want twice, for the renewed deadline 160ms", r.aims[0], m.aimedAt)
	}
	r.advance(59 * time.Millisecond)
	if hold.ended {
		t.Fatal("the renewed hold lapsed early")
	}
	r.advance(1 * time.Millisecond)
	if !hold.lapsed {
		t.Errorf("at the renewed deadline the hold is %+v, want lapsed", hold)
	}
}

// TestMachineLocalFIFO: three waiters of one key at one node are served
// in arrival order, each by the release before it, on one protocol
// request at a time.
func TestMachineLocalFIFO(t *testing.T) {
	const id = 9
	r := newRig(t, 1, core.Config{}, -1, false)
	for _, who := range []string{"a", "b", "c"} {
		r.lock(1, id, who)
	}
	r.settle()
	if got := queued(r.ms[1], id); got != 3 {
		t.Fatalf("Queued = %d with a holder and two waiters, want 3", got)
	}
	for i, who := range []string{"a", "b", "c"} {
		if len(r.holds) != i+1 {
			t.Fatalf("%d holds when %s should have just been served, want %d", len(r.holds), who, i+1)
		}
		if err := r.unlock(1, id, r.lastHold(who).fence); err != nil {
			t.Fatal(err)
		}
		r.settle()
	}
	if b := r.ms[1].Books(); b.Held != 0 || b.Waiting != 0 {
		t.Errorf("books after the last release = %+v, want nothing held or waiting", b)
	}
}

// TestMachineCancelMidQueue: a waiter that is not at the head leaves with
// no protocol action and is never served — and the slot its removal
// vacates at the tail of the queue is cleared (audit): at PR 22 the
// removal left it pointing at the waiter that had moved down, which then
// outlived its own release.
func TestMachineCancelMidQueue(t *testing.T) {
	const id = 5
	r := newRig(t, 0, core.Config{}, -1, false)
	for _, who := range []string{"a", "b", "c"} {
		r.lock(0, id, who)
	}
	sent := len(r.link)
	r.cancel(0, id, "b")
	if len(r.link) != sent || queued(r.ms[0], id) != 2 {
		t.Fatalf("cancelling a queued waiter sent %d envelopes and left %d queued, want none and 2", len(r.link)-sent, queued(r.ms[0], id))
	}
	r.cancel(0, id, "b") // not queued any more: a no-op
	if err := r.unlock(0, id, r.lastHold("a").fence); err != nil {
		t.Fatal(err)
	}
	if err := r.unlock(0, id, r.lastHold("c").fence); err != nil {
		t.Fatal(err)
	}
	if len(r.holds) != 2 {
		t.Errorf("%d holds, want a's and c's only", len(r.holds))
	}
}

// TestMachineCancelAtHeadInFlight: the protocol has no recall, so a head
// that cancels with its request in flight is abandoned, and the grant
// that still arrives is given straight back — to the waiter behind it
// when there is one, to the cluster otherwise.
func TestMachineCancelAtHeadInFlight(t *testing.T) {
	const id = 11
	for _, behind := range []bool{false, true} {
		r := newRig(t, 1, core.Config{}, -1, false)
		r.lock(1, id, "gone")
		if len(r.link) != 1 {
			t.Fatalf("%d envelopes in flight after a remote Lock, want its request", len(r.link))
		}
		r.cancel(1, id, "gone")
		if behind {
			r.lock(1, id, "behind")
		}
		if len(r.link) != 1 {
			t.Fatalf("%d envelopes in flight, want the one request: an abandoned head sends nothing, a waiter behind it rides", len(r.link))
		}
		r.settle()
		for _, h := range r.holds {
			if h.who == "gone" {
				t.Fatalf("the cancelled waiter was served: %+v", h)
			}
		}
		if behind {
			if err := r.unlock(1, id, r.lastHold("behind").fence); err != nil {
				t.Fatal(err)
			}
			r.settle()
		} else if len(r.holds) != 0 {
			t.Fatalf("%d holds, want none", len(r.holds))
		}
		// The token is free again: the other node gets it.
		r.lock(0, id, "other")
		r.settle()
		r.lastHold("other")
	}
}

// TestMachineCancelRacesGrant: a cancel that finds its waiter already
// granted releases the hold.
func TestMachineCancelRacesGrant(t *testing.T) {
	const id = 13
	r := newRig(t, 1, core.Config{}, time.Second, false)
	r.lock(1, id, "late")
	r.settle()
	hold := r.lastHold("late")
	r.lock(1, id, "next")
	r.cancel(1, id, "late")
	if !hold.ended || hold.lapsed {
		t.Fatalf("after the cancel the hold is %+v, want ended, not lapsed", hold)
	}
	r.settle()
	r.lastHold("next")
	if b := r.ms[1].Books(); b.Held != 1 || b.Waiting != 1 || b.Pending != 1 {
		t.Errorf("books = %+v, want next's hold and its one deadline", b)
	}
}

// TestMachineRejoinRestoresStable: on a Rejoin node an instance is never
// pristine. Its first touch restores what stable storage holds and runs
// Section 5 recovery — it comes up searching for a father, not as the
// node the initial conditions describe — and what a step changes is
// reported with the envelopes of the same Drain.
func TestMachineRejoinRestoresStable(t *testing.T) {
	const id = 21
	was := StableState{Seq: 5 << 20, Epoch: 6, RepairGen: 2}
	store := NewMemStable()
	store.Save(id, was)
	tmpl := ftTemplate()
	tmpl.Self, tmpl.P = 0, 1
	m, err := NewMachine(tmpl, true, store, &rigDriver{})
	if err != nil {
		t.Fatal(err)
	}
	// Node 0 of a newborn cluster would hold the token and grant at once.
	if err := m.Lock(0, id, "a"); err != nil {
		t.Fatal(err)
	}
	n := m.insts[0].node
	if s := n.Stable(); n.TokenHere() || !n.Searching() || s.Epoch != was.Epoch || s.RepairGen < was.RepairGen || s.Seq < was.Seq {
		t.Errorf("rejoined instance: token=%v searching=%v stable=%+v, want no token, searching, and nothing below %+v",
			n.TokenHere(), n.Searching(), s, was)
	}
	out, saves := m.Drain()
	if len(out) == 0 {
		t.Error("recovery sent no probe")
	}
	if b := m.Books(); b.Held != 0 || b.Waiting != 1 || b.Busy != 1 || b.Pending == 0 {
		t.Errorf("books = %+v, want one waiter on one busy instance with its search timer pending", b)
	}
	now := n.Stable()
	if now == was {
		t.Fatal("recovery and a request changed nothing stable")
	}
	if len(saves) == 0 || saves[len(saves)-1] != (StableWrite{Instance: id, State: now}) {
		t.Errorf("Drain reported %+v, want the instance's new state %+v last", saves, now)
	}
}

// TestMachineRejoinAloneGrantsInTheStep: on a one-node cube (pmax = 0) a
// rejoin machine has no node to search, so each key's recovery
// regenerates inside the Lock that instantiates it: the Lock is granted
// in its own step, with no timer fired, and nothing goes on the link.
func TestMachineRejoinAloneGrantsInTheStep(t *testing.T) {
	tmpl := ftTemplate()
	tmpl.Self, tmpl.P = 0, 0
	r := &rig{t: t, ttl: -1, holder: map[uint64]*rigHold{}, fences: map[uint64]uint64{}}
	m, err := NewMachine(tmpl, true, nil, &rigDriver{rig: r})
	if err != nil {
		t.Fatal(err)
	}
	for id := uint64(1); id <= 5; id++ {
		if err := m.Lock(0, id, "a"); err != nil {
			t.Fatal(err)
		}
		if r.holder[id] == nil {
			t.Errorf("Lock on instance %d was not granted inside its step", id)
		}
	}
	if out, _ := m.Drain(); len(out) > 0 {
		t.Errorf("Drain = %v, want no envelope", out)
	}
	if b := m.Books(); b.Held != 5 || b.Regenerations != 5 {
		t.Errorf("books = %+v, want five holds, each of a regenerated token", b)
	}
}

// TestMachineCrashVoidsAndRecoverRejoins: at a crash every hold ends,
// every waiter and every deadline is void; Recover then restarts each
// instance through its Section 5 rejoin, in instance order.
func TestMachineCrashVoidsAndRecoverRejoins(t *testing.T) {
	r := newRig(t, 1, ftTemplate(), time.Second, false)
	for id := uint64(3); id >= 1; id-- { // minted out of instance order
		r.lock(1, id, "holder")
		r.lock(1, id, "waiter")
	}
	r.settle()
	m := r.ms[1]
	if b := m.Books(); b.Held != 3 || b.Waiting != 6 || b.Pending < 3 {
		t.Fatalf("books before the crash = %+v, want 3 holds, 6 waiters and their deadlines", b)
	}
	m.Crash()
	r.down[1] = true
	r.step(1)
	if b := m.Books(); b.Held != 0 || b.Waiting != 0 || b.Pending != 0 || b.Busy != 0 || b.States != 3 {
		t.Errorf("books after the crash = %+v, want three idle state machines and nothing else", b)
	}
	for _, h := range r.holds {
		if !h.ended || h.lapsed {
			t.Errorf("hold %+v survived the crash", h)
		}
	}
	if m.aimed {
		t.Error("a crashed node still has its timer aimed")
	}
	m.Recover(r.now)
	r.down[1] = false
	out, _ := m.Drain()
	var order []uint64
	for _, env := range out {
		if len(order) == 0 || order[len(order)-1] != env.Instance {
			order = append(order, env.Instance)
		}
	}
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("Recover probed for instances %v, want 1 2 3 in order", order)
	}
	r.link = append(r.link, out...)
	r.step(1)
	if b := m.Books(); b.Busy != 3 || b.Pending == 0 {
		t.Errorf("books after Recover = %+v, want three searching instances with their timers", b)
	}
	// The cluster heals: the survivor regenerates what the crash took and
	// the rejoined node can lock again.
	for n := 0; m.Books().Busy > 0 || r.ms[0].Books().Busy > 0; n++ {
		if n == 1000 {
			t.Fatalf("no quiescence after recovery: %+v / %+v", r.ms[0].Books(), m.Books())
		}
		r.settle()
		r.advance(delta)
	}
	r.settle()
	r.lock(1, 2, "again")
	for n := 0; r.holder[2] == nil; n++ {
		if n == 1000 {
			t.Fatal("the recovered node never locks again")
		}
		r.settle()
		r.advance(delta)
	}
	r.lastHold("again")
}

// TestMachineStatesMatchNode: a census row is what its instance's
// core.Node and the lockspace in front of it say, field by field — for a
// waiter whose RequestCS is in flight, a holder with a waiter behind it
// and a node searching for a father after its recovery.
func TestMachineStatesMatchNode(t *testing.T) {
	r := newRig(t, 2, ftTemplate(), -1, false)
	r.lock(1, 1, "waiter") // its request stays in flight: nothing is delivered
	r.lock(0, 2, "holder") // node 0 holds every token at birth
	r.lock(0, 2, "behind")
	r.lock(2, 3, "lost")
	r.ms[2].Crash()
	r.down[2] = true
	r.ms[2].Recover(r.now)
	r.down[2] = false
	r.step(2)

	var waiting, holding, searching int
	for x, m := range r.ms {
		rows := m.States(nil)
		if len(rows) != len(m.insts) {
			t.Fatalf("node %d: %d rows for %d instances", x, len(rows), len(m.insts))
		}
		for i, row := range rows {
			if i > 0 && rows[i-1].Instance >= row.Instance {
				t.Errorf("node %d: rows out of instance order: %d before %d", x, rows[i-1].Instance, row.Instance)
			}
			st := m.insts[m.index[row.Instance]]
			n := st.node
			for _, f := range []struct {
				name      string
				got, want any
			}{
				{"node", row.Node, x},
				{"instance", row.Instance, n.Instance()},
				{"father", row.Father, int(n.Father())},
				{"token_here", row.TokenHere, n.TokenHere()},
				{"asking", row.Asking, n.Asking()},
				{"in_cs", row.InCS, n.InCS()},
				{"searching", row.Searching, n.Searching()},
				{"queue_len", row.QueueLen, n.QueueLen()},
				{"epoch", row.Epoch, n.Epoch()},
				{"busy", row.Busy, n.Busy()},
				{"held", row.Held, st.held},
				{"waiters", row.Waiters, len(st.queue)},
				{"note", row.Note, ""},
			} {
				if f.got != f.want {
					t.Errorf("node %d instance %d: %s = %v, want %v", x, row.Instance, f.name, f.got, f.want)
				}
			}
			switch {
			case x == 1 && row.Instance == 1:
				if row.Asking && row.Busy && !row.Held && row.Waiters == 1 && row.Father == 0 {
					waiting++
				}
			case x == 0 && row.Instance == 2:
				if row.Held && row.InCS && row.TokenHere && row.Waiters == 2 && row.Father == int(ocube.None) {
					holding++
				}
			case x == 2 && row.Instance == 3:
				if row.Searching && row.Busy && row.Waiters == 0 {
					searching++
				}
			}
		}
	}
	if waiting != 1 || holding != 1 || searching != 1 {
		t.Errorf("rows show %d in-flight waiters, %d holders, %d searching nodes; want one of each", waiting, holding, searching)
	}
	if rows := r.ms[0].States(func(row obs.NodeState) bool { return row.Held }); len(rows) != 1 || rows[0].Instance != 2 {
		t.Errorf("node 0's held rows = %+v, want instance 2's alone", rows)
	}
}

// TestMachineRandomSchedule drives four fault-tolerant machines through a
// random schedule of locks, unlocks, cancels, renewals, deliveries and
// clock steps over a handful of keys — leases lapsing on the way — with
// the drivers checking mutual exclusion and rising fences at every grant
// and the rig auditing every machine's books after every step.
func TestMachineRandomSchedule(t *testing.T) {
	const keys, steps = 3, 6000
	rng := rand.New(rand.NewSource(23))
	tmpl := core.Config{FT: true, Delta: delta, CSEstimate: 4 * delta, SuspicionSlack: 400 * delta}
	r := newRig(t, 2, tmpl, 6*delta, true)
	type client struct {
		node int
		id   uint64
	}
	waiting := map[*client]bool{} // locked or queued, by identity
	for i := 0; i < steps && !t.Failed(); i++ {
		switch rng.Intn(10) {
		case 0, 1:
			c := &client{node: rng.Intn(len(r.ms)), id: uint64(1 + rng.Intn(keys))}
			waiting[c] = true
			r.lock(c.node, c.id, c)
		case 2, 3:
			for _, h := range r.holder { // any current hold
				if rng.Intn(3) == 0 {
					_ = r.ms[h.node].Keepalive(r.now, h.id, h.fence, r.ttl)
					r.step(int(h.node))
				} else if err := r.unlock(int(h.node), h.id, h.fence); err != nil {
					t.Errorf("Unlock of the current hold %+v: %v", h, err)
				}
				break
			}
		case 4:
			for c := range waiting {
				r.cancel(c.node, c.id, c)
				delete(waiting, c)
				break
			}
		case 5:
			r.advance(time.Duration(rng.Intn(int(8 * delta))))
		default:
			if len(r.link) > 0 {
				// The link may reorder (Section 2 assumes no FIFO).
				j := rng.Intn(min(len(r.link), 4))
				r.link[0], r.link[j] = r.link[j], r.link[0]
				r.deliver()
			}
		}
	}
	if len(r.holds) < steps/40 {
		t.Errorf("only %d holds in %d steps: the schedule does not exercise the machine", len(r.holds), steps)
	}
	lapsed := 0
	for _, h := range r.holds {
		if h.lapsed {
			lapsed++
		}
	}
	if lapsed == 0 {
		t.Error("no lease ever lapsed")
	}
	t.Logf("%d holds, %d of them lapsed, %d envelopes still in flight", len(r.holds), lapsed, len(r.link))
}

// benchDriver is a benchmark machine's driver: every hold lasts hold, and
// the machine ends it itself at that deadline, as a Space's position does.
type benchDriver struct{ hold time.Duration }

func (d benchDriver) granted(uint64, uint64, any) time.Duration { return d.hold }
func (benchDriver) ended(uint64, uint64, bool)                  {}

// BenchmarkMachineStep prices the keyed node alone, with no driver, engine
// or wire: two positions of a fault-tolerant cube, 64 keys, and a scripted
// link that delivers in send order at once. One op is one roaming grant —
// the Lock, every envelope it causes, and the Tick that ends the hold a
// virtual millisecond later — and ns/input and allocs/input divide by the
// machine inputs it took (Lock, Envelope, Tick). Each key's requester
// alternates between the positions pass by pass, so the token always has
// to travel; the first three passes, which mint the instances at both
// positions and grow each one's pools, are not timed, so even a single
// timed op allocates nothing.
// BenchmarkSpaceKeyed's ns/event minus this reading is roughly what the
// simulated driver costs.
func BenchmarkMachineStep(b *testing.B) {
	const keys = 64
	var ms [2]*Machine
	for i := range ms {
		cfg := core.Config{Self: ocube.Pos(i), P: 1, FT: true,
			Delta: time.Millisecond, CSEstimate: time.Millisecond, SuspicionSlack: 32 * time.Millisecond}
		m, err := NewMachine(cfg, false, nil, benchDriver{hold: time.Millisecond / 2})
		if err != nil {
			b.Fatal(err)
		}
		ms[i] = m
	}
	var now time.Duration
	var link []core.Envelope
	inputs := 0
	// closed ends an input to m as a driver does: its outbox goes in
	// flight, its timer is aimed.
	closed := func(m *Machine) {
		out, _ := m.Drain()
		link = append(link, out...)
		m.Aim()
		inputs++
	}
	settle := func() {
		for i := 0; i < len(link); i++ {
			m := ms[link[i].Msg.To]
			m.Envelope(now, link[i])
			closed(m)
		}
		link = link[:0]
	}
	op := func(i int) {
		m := ms[i/keys%2]
		if err := m.Lock(now, uint64(1+i%keys), nil); err != nil {
			b.Fatal(err)
		}
		closed(m)
		settle()
		now += time.Millisecond
		for _, m := range ms {
			if m.aimed && m.aimedAt <= now {
				m.Tick(now)
				closed(m)
			}
		}
		settle()
	}
	const warm = 3 * keys
	for i := 0; i < warm; i++ {
		op(i)
	}
	inputs = 0
	// Mallocs counts every goroutine's allocations: on one P, as under
	// testing.AllocsPerRun, no other goroutine runs beside the op.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op(warm + i)
	}
	b.StopTimer()
	runtime.ReadMemStats(&m1)
	if books := ms[0].Books().Held + ms[1].Books().Held; books != 0 {
		b.Fatalf("%d holds outlived their op", books)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(inputs), "ns/input")
	b.ReportMetric(float64(m1.Mallocs-m0.Mallocs)/float64(inputs), "allocs/input")
	b.ReportMetric(float64(inputs)/float64(b.N), "inputs/op")
}
