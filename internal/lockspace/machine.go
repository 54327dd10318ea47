package lockspace

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// This file is the keyed node itself, with no I/O in it: every instance
// hosted at one position, lazily instantiated, with the FIFO of local
// waiters in front of each, the hold each grant begins and the deadline
// that ends it, the one timerWheel their timers share and the envelopes
// they send. It is a pure state machine in the shape of core.Node and
// transport.Machine: the driver tells it the time and what happened
// (Envelope, Tick, Lock, Unlock, Keepalive, Cancel, Crash, Recover), and it
// answers with envelopes in the order they were sent, the stable storage
// that changed, one deadline (Aim) and — inside the step, through driver —
// the holds that begin and end. Two drivers exist: Lockspace (lockspace.go)
// on the wall clock, over a session, and Space's muxPeer (mux.go) under
// the deterministic engine, which steps it in place, so the simulator runs
// the lockspace that ships.

// driver is the driver's side of a hold. Both calls come inside a step and
// must not call back into the machine.
type driver interface {
	// granted begins the hold of instance id by waiter who (what Lock was
	// given) under fence, and returns how long it may last: once that has
	// passed without Unlock or Keepalive the machine ends the hold itself.
	// A negative length is a hold with no deadline.
	granted(id, fence uint64, who any) time.Duration
	// ended ends that hold: released, given up by Cancel, lapsed at its
	// deadline, or void with a Crash.
	ended(id, fence uint64, lapsed bool)
}

// StableWrite is one instance's changed stable storage. The driver saves
// it before the envelopes of the same Drain leave: a node that crashes
// between the two has promised nothing it cannot remember.
type StableWrite struct {
	Instance uint64
	State    StableState
}

// Books are a machine's accounts between two steps: state machines
// instantiated (the lazy footprint, versus one per key ever seen anywhere),
// instances with protocol activity outstanding, holds, local waiters
// (holders included), pending deadlines — protocol timers and hold ends,
// all live — and the regenerations and stale sightings the instances'
// host counted.
type Books struct {
	States, Busy, Held, Waiting, Pending int
	Regenerations, StaleTokens           int64
}

// Machine is the keyed lock node of one position. It holds no lock and
// reads no clock: the driver serializes the calls and supplies now, a
// duration since a fixed origin that never decreases from call to call.
type Machine struct {
	drv driver
	// host mints every instance's state machine from the one validated
	// template and holds the effect scratch they share.
	host   *core.Host
	rejoin bool
	stable StableStore
	// index resolves an instance id to its ref: its record in insts (and in
	// saved, what Drain last reported, so unchanged states cost no store
	// traffic) and its row in the wheel's slot table, all in minting order.
	index map[uint64]int32
	insts []*instance
	saved []StableState
	// slab is where instances are carved from, so a record costs no
	// allocation and never moves; spare is where an instance's FIFO gets its
	// first slot, so neither does a lone waiter — every simulated one.
	slab  []instance
	spare []waiter
	wheel timerWheel
	// aimed is set while the driver's one timer is aimed at aimedAt (Aim).
	aimed   bool
	aimedAt time.Duration
	out     []core.Envelope
	saves   []StableWrite
	books   Books // States, Pending and the host's counts are filled in by Books
}

// instance is one lazily instantiated lock at this position, with its
// FIFO of local waiters. The queue head is the holder once held is set,
// else the waiter whose RequestCS is in flight.
type instance struct {
	node  *core.Node
	queue []waiter
	ref   int32
	held  bool
	busy  bool // what node.Busy() said when the instance was last settled
	// fence is the fencing token of the current hold (core.Grant.Fence),
	// holdEnd when it lapses. One wheelHold entry is pending while a hold
	// with a deadline lasts, so a renewal moves holdEnd, not the heap.
	fence   uint64
	holdEnd time.Duration
}

// waiter is one Lock in an instance's FIFO. abandoned marks a cancelled
// head whose RequestCS is already in flight: the protocol has no recall,
// so the eventual grant is given straight back.
type waiter struct {
	who       any
	abandoned bool
}

// NewMachine returns the keyed node of position node.Self with nothing
// instantiated. node is the template of every instance, validated here,
// once, so minting cannot fail; rejoin instantiates each through Section 5
// recovery (a node with a life record, Config.Stable); stable, when set,
// seeds each at first touch
// and makes Drain report what a step changed — saving is the driver's.
func NewMachine(node core.Config, rejoin bool, stable StableStore, drv driver) (*Machine, error) {
	host, err := core.NewHost(node)
	if err != nil {
		return nil, fmt.Errorf("lockspace: node template: %w", err)
	}
	return &Machine{drv: drv, host: host, rejoin: rejoin, stable: stable, index: make(map[uint64]int32)}, nil
}

// Books returns the machine's accounts.
func (m *Machine) Books() Books {
	b := m.books
	b.States, b.Pending = len(m.insts), len(m.wheel.ents)
	b.Regenerations, b.StaleTokens = m.host.Regenerations(), m.host.StaleTokens()
	return b
}

// Aim keeps the driver's one timer aimed at the earliest deadline of any
// instance: it reports that deadline when the timer has to be set for it,
// and the driver calls Tick when the timer fires. The aim only tightens:
// a fire that finds nothing due (its deadline was rescheduled later, or
// reaped) costs one empty Tick, less than a timer reset on every step.
func (m *Machine) Aim() (time.Duration, bool) {
	at, ok := m.wheel.earliest()
	if !ok || m.aimed && m.aimedAt <= at {
		return 0, false
	}
	m.aimed, m.aimedAt = true, at
	return at, true
}

// States reads every instantiated instance's state out as the rows a
// census or an autopsy reports, in instance order: its core.Node's
// protocol state and the local side in front of it — the hold and the
// FIFO of waiters. keep, when set, picks the rows returned.
func (m *Machine) States(keep func(obs.NodeState) bool) []obs.NodeState {
	var rows []obs.NodeState
	for _, st := range m.byInstance() {
		n := st.node
		r := obs.NodeState{
			Node: int(n.Self()), Instance: n.Instance(), Father: int(n.Father()),
			TokenHere: n.TokenHere(), Asking: n.Asking(), InCS: n.InCS(),
			Searching: n.Searching(), QueueLen: n.QueueLen(), Epoch: n.Epoch(),
			Busy: n.Busy(), Held: st.held, Waiters: len(st.queue),
		}
		if keep == nil || keep(r) {
			rows = append(rows, r)
		}
	}
	return rows
}

// byInstance lists the instances in ascending id order — the fixed order
// deterministic replay and rendered censuses require.
func (m *Machine) byInstance() []*instance {
	sts := slices.Clone(m.insts)
	slices.SortFunc(sts, func(a, b *instance) int { return cmp.Compare(a.node.Instance(), b.node.Instance()) })
	return sts
}

// Drain hands the driver what the inputs since the last Drain produced:
// the envelopes, in the order they were sent, and the stable storage that
// changed, to be saved first. Both slices expire at the next input.
func (m *Machine) Drain() ([]core.Envelope, []StableWrite) {
	out, saves := m.out, m.saves
	m.out, m.saves = m.out[:0], m.saves[:0]
	return out, saves
}

// Envelope delivers one instance's protocol message.
func (m *Machine) Envelope(now time.Duration, env core.Envelope) {
	st := m.ensure(now, env.Instance)
	m.apply(now, st, st.node.HandleMessage(env.Msg))
	m.settle(st)
}

// Tick handles every deadline that has come due, in (deadline,
// schedule-order) sequence. A renewed hold re-arms for the remainder; a
// lapsed one ends through the ordinary §3 exit protocol, and its holder's
// later Unlock or Keepalive reports ErrLeaseExpired (Config.LeaseTTL).
func (m *Machine) Tick(now time.Duration) {
	m.aimed = false
	for {
		ent, ok := m.wheel.popDue(now)
		if !ok {
			return
		}
		st := m.insts[ent.ref]
		switch {
		case ent.kind != wheelHold:
			m.apply(now, st, st.node.HandleTimer(ent.kind, ent.gen))
		case st.holdEnd > now:
			m.wheel.schedule(st.ref, ent.inst, wheelHold, 0, st.holdEnd)
		default:
			_ = m.release(now, st, true) // a hold is a node in its critical section
		}
		m.settle(st)
	}
}

// Lock queues who for instance id and issues the protocol request when it
// is first in line (later waiters ride on the head's); a token found at
// home is granted before Lock returns.
func (m *Machine) Lock(now time.Duration, id uint64, who any) error {
	return m.enqueue(now, m.ensure(now, id), who)
}

// enqueue is Lock on an instance already looked up.
func (m *Machine) enqueue(now time.Duration, st *instance, who any) error {
	if cap(st.queue) == 0 {
		if len(m.spare) == 0 {
			m.spare = make([]waiter, 64)
		}
		st.queue, m.spare = m.spare[:0:1], m.spare[1:]
	}
	st.queue = append(st.queue, waiter{who: who})
	m.books.Waiting++
	if len(st.queue) == 1 {
		effs, err := st.node.RequestCS()
		if err != nil {
			m.pop(st, 0)
			return err
		}
		m.apply(now, st, effs)
	}
	m.settle(st)
	return nil
}

// Unlock releases the hold of instance id that fence names and hands the
// lock to the next local waiter, if any; a token on loan leaves for its
// lender. A zero fence names whatever hold is current.
func (m *Machine) Unlock(now time.Duration, id, fence uint64) error {
	st, err := m.holder(id, fence)
	if err == nil {
		err = m.release(now, st, false)
		m.settle(st)
	}
	return err
}

// Keepalive renews the hold that fence names: it now lasts hold from now
// (negative: as long as it did). The pending deadline is not moved, Tick
// re-arms it when it finds the hold renewed.
func (m *Machine) Keepalive(now time.Duration, id, fence uint64, hold time.Duration) error {
	st, err := m.holder(id, fence)
	if err == nil && hold >= 0 {
		m.armHold(st, now+hold)
	}
	return err
}

// holder returns instance id when fence names its current hold (0 = any
// hold). A fence naming a hold that is gone — lapsed and reclaimed,
// possibly re-granted — reports ErrLeaseExpired.
func (m *Machine) holder(id, fence uint64) (*instance, error) {
	if ref, ok := m.index[id]; ok {
		if st := m.insts[ref]; st.held && (fence == 0 || fence == st.fence) {
			return st, nil
		}
	}
	if fence != 0 {
		return nil, ErrLeaseExpired
	}
	return nil, ErrNotLocked
}

// Cancel removes who from instance id's FIFO. Not yet at the head: it
// leaves with no protocol action. At the head and granted (the grant
// raced the cancel): the hold is released. At the head with its request
// in flight: it is marked abandoned. Not queued — granted and released
// already — is a no-op.
func (m *Machine) Cancel(now time.Duration, id uint64, who any) {
	ref, ok := m.index[id]
	if !ok {
		return
	}
	st := m.insts[ref]
	switch i := slices.IndexFunc(st.queue, func(w waiter) bool { return w.who == who }); {
	case i > 0:
		m.pop(st, i)
	case i < 0:
	case st.held:
		_ = m.release(now, st, false) // likewise
		m.settle(st)
	default:
		st.queue[0].abandoned = true
	}
}

// Crash is the instant the node fail-stops: every hold ends, every waiter
// and deadline is void. The state machines keep what Section 5 keeps.
func (m *Machine) Crash() {
	for _, st := range m.insts {
		if st.held {
			m.endHold(st, false)
		}
		clear(st.queue)
		st.queue, st.busy = st.queue[:0], false
	}
	m.books.Busy, m.books.Waiting = 0, 0
	m.wheel.clear()
	m.aimed = false
}

// Recover restarts every instantiated instance through its Section 5
// rejoin, in instance order.
func (m *Machine) Recover(now time.Duration) {
	for _, st := range m.byInstance() {
		m.apply(now, st, st.node.Recover())
		m.settle(st)
	}
}

// ensure returns the instance, instantiating its state machine on first
// touch: pristine for a cluster-birth node, through stable-storage restore
// and Section 5 recovery for a rejoin node (which cannot tell "this
// instance never existed" from "it lived while I was down"; NewNode's
// initial conditions would then fabricate a second token).
func (m *Machine) ensure(now time.Duration, id uint64) *instance {
	ref, ok := m.index[id]
	if !ok {
		ref = m.wheel.mint()
		m.index[id] = ref
		if len(m.slab) == 0 {
			m.slab = make([]instance, 64)
		}
		st := &m.slab[0]
		*st = instance{node: m.host.NewNode(id), ref: ref}
		m.insts, m.slab = append(m.insts, st), m.slab[1:]
		if m.stable != nil {
			s, ok := m.stable.Load(id)
			if !ok || st.node.RestoreStable(s) != nil {
				s = StableState{}
			}
			m.saved = append(m.saved, s)
		}
		if m.rejoin {
			m.apply(now, st, st.node.Recover())
			m.settle(st)
		}
	}
	return m.insts[ref]
}

// settle closes one instance's part of a step: the protocol timers it
// cancelled or superseded leave the wheel (each could only fire dead), its
// Busy transition is counted, and stable storage that changed is reported.
func (m *Machine) settle(st *instance) {
	m.wheel.reap(st.ref, st.node)
	if b := st.node.Busy(); b != st.busy {
		if st.busy = b; b {
			m.books.Busy++
		} else {
			m.books.Busy--
		}
	}
	if m.stable == nil {
		return
	}
	cur := st.node.Stable()
	if cur != m.saved[st.ref] {
		m.saved[st.ref] = cur
		m.saves = append(m.saves, StableWrite{Instance: st.node.Instance(), State: cur})
	}
}

// apply executes one instance's effects: sends join the outbox, timers
// take their slot in the wheel — in place per (instance, kind): the
// arming this one replaces could only have fired dead — and a grant goes
// to the head waiter. The effects expire at the next call into the host,
// which serving a grant may make: core emits a grant last, and it is
// served once the loop is done with the slice.
func (m *Machine) apply(now time.Duration, st *instance, effs []core.Effect) {
	id := st.node.Instance()
	var grant *core.Grant
	for _, e := range effs {
		switch e := e.(type) {
		case *core.Send:
			m.out = append(m.out, core.Envelope{Instance: id, Msg: e.Msg})
		case *core.StartTimer:
			m.wheel.schedule(st.ref, id, e.Kind, e.Gen, now+e.Delay)
		case *core.Grant:
			grant = e
		}
	}
	switch {
	case grant == nil:
	case len(st.queue) == 0 || st.queue[0].abandoned:
		// The head cancelled while its request was in flight (or, which the
		// queue discipline should make unreachable, nobody waits): the
		// grant is given straight back and the next waiter served.
		_ = m.release(now, st, false) // the node has just entered its critical section
	default:
		st.held, st.fence = true, grant.Fence
		m.books.Held++
		if hold := m.drv.granted(id, st.fence, st.queue[0].who); hold >= 0 {
			m.armHold(st, now+hold)
		}
	}
}

// armHold sets when the current hold lapses; the one check pending per
// hold compares against it.
func (m *Machine) armHold(st *instance, end time.Duration) {
	st.holdEnd = end
	if !m.wheel.pending(st.ref, wheelHold) {
		m.wheel.schedule(st.ref, st.node.Instance(), wheelHold, 0, end)
	}
}

// endHold closes the books of the current hold and tells the driver.
func (m *Machine) endHold(st *instance, lapsed bool) {
	st.held = false
	m.books.Held--
	m.wheel.cancel(st.ref, wheelHold)
	m.drv.ended(st.node.Instance(), st.fence, lapsed)
	st.fence = 0
}

// release ends the head waiter's critical section — a hold, or a grant
// nobody is left to take — drops the cancelled waiters queued behind it
// and starts the next live waiter's request.
func (m *Machine) release(now time.Duration, st *instance, lapsed bool) error {
	effs, err := st.node.ReleaseCS()
	if err != nil {
		return err
	}
	if st.held {
		m.endHold(st, lapsed)
	}
	if len(st.queue) > 0 {
		m.pop(st, 0)
	}
	m.apply(now, st, effs)
	for len(st.queue) > 0 && st.queue[0].abandoned {
		m.pop(st, 0)
	}
	if len(st.queue) > 0 {
		effs, err := st.node.RequestCS()
		if err != nil {
			// Cannot happen (the release cleared the local wish); surface
			// loudly if the state machine disagrees.
			panic(fmt.Sprintf("lockspace: re-request after release: %v", err))
		}
		m.apply(now, st, effs)
	}
	return nil
}

// pop takes waiter i out of the instance's FIFO. The slot vacated at the
// tail is cleared (slices.Delete): it keeps no caller alive.
func (m *Machine) pop(st *instance, i int) {
	st.queue = slices.Delete(st.queue, i, i+1)
	m.books.Waiting--
}
