// Package lockspace is the keyed multi-instance lock service: thousands
// of independent open-cube mutexes — one per lock key — multiplexed over
// a single runtime. Messages travel as instance-tagged envelopes around
// the unchanged core.Message wire format; per-instance state machines
// are lazily instantiated on first touch (an untouched position of an
// instance is exactly a pristine core.Node, because a node's view of an
// instance only changes by processing that instance's traffic); and
// every instance shares its node's resources — one mutex-guarded state
// per node in the live path (this file), stepped to completion by
// whichever goroutine has the input; one typed-event engine in the
// simulated path (mux.go); one transport mesh with per-destination
// envelope batching on the wire.
//
// The unit of scale here is resources rather than nodes: the paper's
// O(log₂²N) per-critical-section bound holds per instance, and the
// lockspace serves K instances for the price of one shared runtime —
// the E9 experiment (internal/harness) sweeps K from 1 to 4096 under
// uniform and Zipf-skewed key popularity with crash/recovery injection.
package lockspace

//ocmxvet:live -- this file is the live goroutine runtime (wall-clock leases,
// session transports, context cancellation); the deterministic simulated path
// lives in mux.go, and wheel.go — the deadline heap both share — stays under
// the determinism analyzer with it.

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/ocube"
	"repro/internal/transport"
)

// ErrClosed is returned by operations on a closed lockspace node.
var ErrClosed = errors.New("lockspace: closed")

// ErrNotLocked is returned by Unlock when this node holds no lock on the
// key.
var ErrNotLocked = errors.New("lockspace: key not locked by this node")

// ErrLeaseExpired is returned by Unlock and Keepalive when the hold the
// caller's fence names is gone: its lease lapsed and the lock was
// reclaimed (possibly re-granted — the caller's fence no longer matches
// the current hold). The caller must treat its critical section as
// already invalid; a FencedResource has been rejecting its fence since
// the next grant touched it.
var ErrLeaseExpired = errors.New("lockspace: lease expired")

// KeyInstance maps a lock key to its instance id (64-bit FNV-1a). Every
// node of a lockspace derives the same id without coordination, which is
// what lets an instance exist lazily: the first envelope that mentions
// it is enough. Distinct keys hashing to one id simply share a mutex —
// mutual exclusion still holds, the keys just contend with each other.
func KeyInstance(key string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211
	}
	if h == core.NoInstance {
		h = 1 // NoInstance tags untagged traffic; never use it for a key
	}
	return h
}

// InstanceShard routes an instance id to one of shards disjoint groups —
// the shard router of the partitioned runtime (internal/shard, E13). It
// re-hashes the id with the same FNV-1a discipline as KeyInstance (over
// the id's little-endian bytes) instead of taking id % shards directly:
// the simulated path uses DENSE instance ids, and a plain modulus would
// stripe them into perfectly regular — and perfectly correlated —
// groups, hiding exactly the hash-skew imbalance a production deployment
// sees. Every node and every shard count derives the same routing
// without coordination, like KeyInstance itself.
func InstanceShard(id uint64, shards int) int {
	if shards <= 1 {
		return 0
	}
	h := uint64(14695981039346656037)
	for i := 0; i < 8; i++ {
		h ^= id & 0xff
		h *= 1099511628211
		id >>= 8
	}
	return int(h % uint64(shards))
}

// KeyShard routes a live lock key to its shard: the shard of the key's
// instance id, so the live path and a sharded simulation that mirrors
// its key population agree on placement.
func KeyShard(key string, shards int) int {
	return InstanceShard(KeyInstance(key), shards)
}

// Config describes one live lockspace node.
type Config struct {
	// Node is the per-instance state-machine template: Self and P name
	// this node's position and the cube order; FT/Delta/... configure the
	// Section 5 failure handling of every instance.
	Node core.Config
	// Transport carries envelope batches between the lockspace nodes. The
	// caller owns its lifetime.
	Transport transport.BatchTransport
	// LeaseTTL, when positive, bounds how long a grant stays valid
	// without renewal: a holder that neither Unlocks nor Keepalives
	// within the TTL has its hold reclaimed through the ordinary §3 exit
	// protocol (the token moves on; the next waiter is served), and its
	// later Unlock/Keepalive reports ErrLeaseExpired. Fencing makes the
	// expired holder harmless to fence-checking resources: the reclaiming
	// grant carries a higher fence. Zero disables expiry.
	LeaseTTL time.Duration
	// Rejoin marks this node as restarting into a cluster that may hold
	// state about its previous life. Every instance is then instantiated
	// through the Section 5 recovery procedure instead of pristinely:
	// NewNode's initial conditions (node 0 holds the token, fathers along
	// the initial cube) are only true at cluster birth, and a restarted
	// node that trusted them could fabricate a second token. Recovery
	// instead rejoins as a leaf and searches for the living structure.
	Rejoin bool
	// Stable, when set, persists each instance's Section 5 stable
	// storage (StableState) write-through at the end of each step, and seeds
	// restored instances from it before recovery. Pair it with Rejoin:
	// Stable carries the values across the restart, Rejoin replays them
	// into the cluster.
	Stable StableStore
	// Metrics, when set, registers this node's live series (grants,
	// locks held, waiter depth, pending deadlines, lease reclaims and
	// their latency) in the given registry, labeled node=<self>. Nil
	// disables metric collection at zero cost: the handles stay nil and
	// every mutation is a nil-receiver no-op.
	Metrics *obs.Registry
	// Flight, when set, records every instance's token lineage (via
	// core.Config.Observe) plus lockspace-level events (lease reclaims)
	// into the shared flight recorder, stamped with wall time.
	Flight *obs.Flight
	// Autopsy, when set, receives a JSONL autopsy from Close when any
	// instance still has queued waiters — the "stuck at shutdown" dump,
	// carrying those keys' recent lineage and protocol state.
	Autopsy io.Writer
}

// Lockspace is one node of the live keyed lock service: every hosted
// instance, one deadline heap under one real timer and the
// per-destination outbox of outbound envelopes, all guarded by one mutex.
// Whoever has an input — a client in Lock or Unlock, the loop goroutine
// with a received burst or a fired timer — takes mu, steps the instances
// to completion, writes stable storage through, flushes the outbox,
// re-aims the timer and only then lets go (DESIGN.md §16).
type Lockspace struct {
	cfg Config

	stop chan struct{}
	done chan struct{}

	// mu guards everything down to armedAt. What runs with it held waits
	// for nothing: the transport's SendBatch (flush) does not wait for the
	// peer.
	mu sync.Mutex
	// dead is set by the loop as it exits, so later calls return ErrClosed.
	dead bool
	// host mints every instance's state machine from the one validated
	// template and holds the effect scratch they share.
	host   *core.Host
	insts  map[uint64]*instance
	outbox [][]core.Envelope // by destination position
	dests  []ocube.Pos       // destinations touched since the last flush, in touch order

	// Every live deadline of every instance — protocol timers and lease
	// checks — is in wheel, measured from epoch; timer is the one runtime
	// timer, aimed at the earliest of them (armedAt while armed). All of
	// it dies with the loop.
	wheel   timerWheel
	epoch   time.Time
	timer   *time.Timer
	armed   bool
	armedAt time.Duration

	states atomic.Int64
	closed atomic.Bool

	// Metric handles (nil when Config.Metrics is nil; every mutation
	// below tolerates that — the zero-cost-when-off contract).
	obsGrants     *obs.Counter
	obsReclaims   *obs.Counter
	obsHeld       *obs.Gauge
	obsWaiters    *obs.Gauge
	obsDeadlines  *obs.Gauge
	obsReclaimLat *obs.Histogram
}

// instance is one lazily instantiated lock at this node, with its local
// FIFO of waiting clients. The queue head is the current holder once
// held is set, else the client whose RequestCS is in flight.
type instance struct {
	node *core.Node
	// ref is the instance's row in the wheel's slot table.
	ref   int32
	queue []*waiter
	held  bool
	// fence is the fencing token of the current hold (core.Grant.Fence);
	// zero while not held.
	fence uint64
	// leaseDeadline is when the current hold's lease lapses, on the
	// wheel's clock. One expiry check is in the wheel while the hold
	// lasts, so renewals reset the deadline without touching the heap.
	leaseDeadline time.Duration
	// saved is the last StableState written through to Config.Stable,
	// so unchanged states cost no store traffic.
	saved StableState
	// reclaimedAt stamps when a lapsed lease was reclaimed, so the next
	// local grant can report the lapse-to-regrant latency; zero
	// otherwise.
	reclaimedAt time.Time
}

// pop drops the head waiter, keeping the queue's backing array for the
// next one.
func (st *instance) pop() {
	n := copy(st.queue, st.queue[1:])
	st.queue[n] = nil
	st.queue = st.queue[:n]
}

// waiter is one Lock call in an instance's FIFO. All of it is written
// under ls.mu.
type waiter struct {
	// granted is what a Lock that did not find its grant at home parks
	// on (nil otherwise); the step that brings the grant closes it.
	granted chan struct{}
	// fence is the grant's fencing token, set with served (the close of
	// granted publishes both to a parked client).
	fence  uint64
	served bool
	// abandoned marks a cancelled waiter whose RequestCS is already in
	// flight: the protocol has no recall, so the eventual grant is given
	// straight back.
	abandoned bool
}

// CensusRow is one instance's snapshot in a Census: the fields the
// chaos harness's end-of-run checks need (at most one token per
// instance across surviving nodes; quiescence).
type CensusRow struct {
	Instance  uint64
	TokenHere bool
	Held      bool
	Busy      bool
	Epoch     uint32
}

// New builds and starts a lockspace node. The caller owns the
// transport's lifetime.
func New(cfg Config) (*Lockspace, error) {
	if cfg.Transport == nil {
		return nil, errors.New("lockspace: nil transport")
	}
	tmpl := cfg.Node
	if cfg.Flight != nil {
		tmpl.Observe = flightObserver(cfg.Flight, func() int64 { return time.Now().UnixNano() })
	}
	// The template is validated here, once, so lazy instantiation cannot
	// fail.
	host, err := core.NewHost(tmpl)
	if err != nil {
		return nil, fmt.Errorf("lockspace: node template: %w", err)
	}
	ls := &Lockspace{
		cfg:    cfg,
		host:   host,
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
		insts:  make(map[uint64]*instance),
		outbox: make([][]core.Envelope, 1<<cfg.Node.P),
		epoch:  time.Now(),
		timer:  time.NewTimer(time.Hour),
	}
	ls.timer.Stop() // nothing is pending yet; rearm aims it
	if cfg.Metrics != nil {
		node := strconv.Itoa(int(cfg.Node.Self))
		ls.obsGrants = cfg.Metrics.Counter("ocmx_lock_grants_total",
			"Lock grants served to this node's local clients.", "node", node)
		ls.obsReclaims = cfg.Metrics.Counter("ocmx_lease_reclaims_total",
			"Lapsed holds reclaimed through the exit protocol.", "node", node)
		ls.obsHeld = cfg.Metrics.Gauge("ocmx_locks_held",
			"Keys currently held by this node's clients.", "node", node)
		ls.obsWaiters = cfg.Metrics.Gauge("ocmx_lock_waiters",
			"Local clients queued for a key (holders included).", "node", node)
		ls.obsDeadlines = cfg.Metrics.Gauge("ocmx_lock_deadlines_pending",
			"Protocol timers and lease checks pending in this node's deadline heap.", "node", node)
		ls.obsReclaimLat = cfg.Metrics.Histogram("ocmx_lease_reclaim_seconds",
			"Lapse-to-next-local-grant latency of lease reclaims.",
			obs.LatencyBuckets(), "node", node)
	}
	go ls.loop()
	return ls, nil
}

// Self returns this node's position.
func (ls *Lockspace) Self() ocube.Pos { return ls.cfg.Node.Self }

// States returns how many instance state machines this node has
// instantiated — the lazy footprint, versus one per key ever seen
// anywhere.
func (ls *Lockspace) States() int64 { return ls.states.Load() }

// begin takes ls.mu for one client step; it reports false, with the
// mutex released, on a node whose loop has exited.
func (ls *Lockspace) begin() bool {
	ls.mu.Lock()
	if ls.dead {
		ls.mu.Unlock()
		return false
	}
	return true
}

// end completes a step and releases ls.mu: what the step sent leaves and
// the timer is aimed at what it scheduled. The caller holds ls.mu.
func (ls *Lockspace) end() {
	ls.flush()
	ls.rearm()
	ls.mu.Unlock()
}

// Lock blocks until this node holds key's lock, or ctx is done, and
// returns the grant's fencing token: strictly increasing per key across
// re-grants (higher epoch or higher grant counter), so a storage system
// comparing fences rejects writes from any holder whose lock has since
// moved on — see opencubemx.FencedResource. The calling goroutine steps
// the instance itself: a token found at home is a grant without a wait,
// and a request that has to travel is on the transport before Lock parks.
// On cancellation the caller leaves the local FIFO immediately; if its
// protocol request was already in flight, the eventual grant is given
// straight back (the protocol has no request recall).
func (ls *Lockspace) Lock(ctx context.Context, key string) (uint64, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	id := KeyInstance(key)
	w := &waiter{}
	if !ls.begin() {
		return 0, ErrClosed
	}
	st := ls.ensure(id)
	err := ls.acquire(id, st, w)
	if err == nil && !w.served {
		w.granted = make(chan struct{})
	}
	ls.settle(id, st)
	ls.end()
	if err != nil {
		return 0, fmt.Errorf("lockspace: lock %q: %w", key, err)
	}
	if w.granted == nil {
		return w.fence, nil
	}
	// The wait also watches ls.done: the loop can die before the grant
	// arrives without ls.stop ever closing — the transport closing under
	// it (a killed node's session) — and the caller would leak, parked.
	select {
	case <-w.granted:
		return w.fence, nil
	case <-ctx.Done():
		// Leave the queue: a waiter not yet at the head is removed, a head
		// whose grant raced the cancel is released.
		if ls.begin() {
			ls.cancel(id, st, w)
			ls.settle(id, st)
			ls.end()
		}
		return 0, ctx.Err()
	case <-ls.stop:
		return 0, ErrClosed
	case <-ls.done:
		return 0, ErrClosed
	}
}

// Unlock releases this node's hold on key's lock and hands it to the
// next local waiter, if any; a token on loan has left for its lender by
// the time Unlock returns. fence names the hold being released — the
// value the Lock returned; if the hold with that fence is gone (its
// lease lapsed and the lock was reclaimed) Unlock reports
// ErrLeaseExpired. A zero fence releases whatever hold is current (the
// pre-fencing behavior).
func (ls *Lockspace) Unlock(key string, fence uint64) error {
	return ls.onHold("unlock", key, fence, func(id uint64, st *instance) error {
		err := ls.forceRelease(id, st)
		ls.settle(id, st)
		return err
	})
}

// Keepalive renews the lease of the hold fence names (0 = the current
// hold), pushing its expiry a full LeaseTTL out. It reports
// ErrLeaseExpired when that hold is gone. With no LeaseTTL configured it
// only verifies the hold still stands.
func (ls *Lockspace) Keepalive(key string, fence uint64) error {
	return ls.onHold("keepalive", key, fence, func(id uint64, st *instance) error {
		ls.armLease(id, st)
		return nil
	})
}

// onHold runs do, as one step of the node, on the hold of key that fence
// names (0 = any hold). A fence naming a hold that is gone — lapsed and
// reclaimed, possibly re-granted — reports ErrLeaseExpired.
func (ls *Lockspace) onHold(op, key string, fence uint64, do func(id uint64, st *instance) error) error {
	id := KeyInstance(key)
	if !ls.begin() {
		return ErrClosed
	}
	var err error
	switch st := ls.insts[id]; {
	case st != nil && st.held && (fence == 0 || fence == st.fence):
		err = do(id, st)
	case fence != 0:
		err = ErrLeaseExpired
	default:
		err = ErrNotLocked
	}
	ls.end()
	if err != nil {
		return fmt.Errorf("lockspace: %s %q: %w", op, key, err)
	}
	return nil
}

// Census snapshots every instantiated instance between two steps — a
// consistent point-in-time view used by the chaos harness's end-of-run
// checks (at most one live token per instance across the surviving
// nodes, quiescence at rest).
func (ls *Lockspace) Census() ([]CensusRow, error) {
	if !ls.begin() {
		return nil, ErrClosed
	}
	rows := make([]CensusRow, 0, len(ls.insts))
	for id, st := range ls.insts {
		rows = append(rows, CensusRow{
			Instance: id, TokenHere: st.node.TokenHere(),
			Held: st.held, Busy: st.node.Busy(), Epoch: st.node.Epoch(),
		})
	}
	ls.mu.Unlock()
	// Instance order, not map order: census consumers (the chaos token
	// census, autopsy state lines) render rows, and replayed runs must
	// render them identically.
	sort.Slice(rows, func(i, j int) bool { return rows[i].Instance < rows[j].Instance })
	return rows, nil
}

// Close stops the node's loop and drops every pending deadline with it:
// nothing the runtime still holds refers to a closed node. It does not
// close the transport.
func (ls *Lockspace) Close() error {
	if ls.closed.Swap(true) {
		return nil
	}
	close(ls.stop)
	<-ls.done
	// The loop marked the node dead on its way out: nothing steps it any
	// more, so the autopsy scan below shares ls.insts with nobody. The
	// instantaneous gauges reset so a chaos member restarting this node
	// in the same registry starts clean.
	ls.obsHeld.Set(0)
	ls.obsWaiters.Set(0)
	ls.obsDeadlines.Set(0)
	if ls.cfg.Autopsy != nil {
		ls.autopsyStuck()
	}
	return nil
}

// autopsyStuck dumps every instance closed with clients still queued —
// in-flight Locks that Close failed with ErrClosed — as a JSONL autopsy:
// the keys' recent token lineage (when a flight recorder is attached)
// plus each wedged instance's protocol state.
func (ls *Lockspace) autopsyStuck() {
	var stuck []uint64
	for id, st := range ls.insts {
		if len(st.queue) > 0 {
			stuck = append(stuck, id)
		}
	}
	if len(stuck) == 0 {
		return
	}
	sort.Slice(stuck, func(i, j int) bool { return stuck[i] < stuck[j] })
	states := make([]obs.NodeState, 0, len(stuck))
	for _, id := range stuck {
		st := ls.insts[id]
		n := st.node
		states = append(states, obs.NodeState{
			Node: int(ls.cfg.Node.Self), Instance: id, Father: int(n.Father()),
			TokenHere: n.TokenHere(), Asking: n.Asking(), InCS: n.InCS(),
			Searching: n.Searching(), QueueLen: len(st.queue), Epoch: n.Epoch(),
			Note: fmt.Sprintf("held=%v fence=%d", st.held, st.fence),
		})
	}
	_ = obs.WriteAutopsy(ls.cfg.Autopsy, "lockspace-close-stuck-waiters",
		map[string]any{"node": int(ls.cfg.Node.Self), "stuck": len(stuck)},
		ls.cfg.Flight, stuck, states)
}

// drainMax bounds how many received batches one step of the loop handles.
// It is a constant, not a knob: a burst's envelopes to one peer share a
// frame up to this many batches deep, and however long the burst, what
// the first of them sent — and a client at the mutex — waits for at most
// this many handlers.
const drainMax = 64

// loop has what arrives on its own, inbound envelope batches and the one
// deadline timer, and steps the node under ls.mu like any caller. A
// received batch is handled together with whatever further batches are
// already waiting, up to drainMax, and only then flushed — one batch per
// destination for the whole burst, and at once for a lone input. On its
// way out — Close, or the transport closing under it — it marks the node
// dead, under the mutex, and stops the timer.
func (ls *Lockspace) loop() {
	defer close(ls.done)
	defer func() {
		ls.mu.Lock()
		ls.dead = true
		ls.timer.Stop()
		ls.mu.Unlock()
	}()
	recv := ls.cfg.Transport.RecvBatch()
	for {
		select {
		case <-ls.stop:
			return
		case batch, ok := <-recv:
			if !ok {
				return
			}
			ls.mu.Lock()
			ls.receive(batch)
			open := ls.drain(recv)
			ls.end()
			if !open {
				return
			}
		case <-ls.timer.C:
			ls.mu.Lock()
			ls.armed = false
			ls.fireDue()
			ls.end()
		}
	}
}

// drain handles the batches already waiting behind the first of a burst,
// up to drainMax in all; it reports false once recv is closed. The caller
// holds ls.mu.
func (ls *Lockspace) drain(recv <-chan []core.Envelope) bool {
	for n := 1; n < drainMax; n++ {
		select {
		case batch, ok := <-recv:
			if !ok {
				return false
			}
			ls.receive(batch)
		default:
			return true
		}
	}
	return true
}

// receive handles one inbound envelope batch. The caller holds ls.mu.
func (ls *Lockspace) receive(batch []core.Envelope) {
	for _, env := range batch {
		if env.Instance == core.NoInstance {
			continue // untagged traffic is not ours
		}
		st := ls.ensure(env.Instance)
		ls.apply(env.Instance, st, st.node.HandleMessage(env.Msg))
		ls.settle(env.Instance, st)
	}
}

// now is the node's clock: the time since it started, which is what the
// wheel's deadlines are measured in.
func (ls *Lockspace) now() time.Duration { return time.Since(ls.epoch) }

// fireDue handles every deadline that has come due, in (deadline,
// schedule-order) sequence. All of them are live: settle reaps what a
// step cancels or supersedes. The caller holds ls.mu.
func (ls *Lockspace) fireDue() {
	now := ls.now()
	for {
		ent, ok := ls.wheel.popDue(now)
		if !ok {
			return
		}
		st := ls.insts[ent.inst]
		if ent.kind == wheelLease {
			ls.leaseCheck(ent.inst, st)
		} else {
			ls.apply(ent.inst, st, st.node.HandleTimer(ent.kind, ent.gen))
		}
		ls.settle(ent.inst, st)
	}
}

// rearm keeps the one runtime timer aimed at the wheel's earliest
// deadline. It only ever tightens: a fire that finds nothing due (the
// deadline it was armed for was rescheduled later, or reaped) costs one
// empty fireDue, which is cheaper than resetting the timer on every
// step. The caller holds ls.mu.
func (ls *Lockspace) rearm() {
	ls.obsDeadlines.Set(float64(len(ls.wheel.ents)))
	at, ok := ls.wheel.earliest()
	if !ok || ls.armed && ls.armedAt <= at {
		return
	}
	ls.armed, ls.armedAt = true, at
	ls.timer.Reset(at - ls.now())
}

// ensure returns the instance, instantiating its state machine on first
// touch: pristine for a cluster-birth node, through stable-storage
// restore and Section 5 recovery for a Rejoin node (a restarted node
// cannot tell "this instance never existed" from "it lived while I was
// down", and trusting NewNode's initial conditions in the second case
// would fabricate a second token). The caller holds ls.mu.
func (ls *Lockspace) ensure(id uint64) *instance {
	st := ls.insts[id]
	if st == nil {
		node := ls.host.NewNode(id)
		st = &instance{node: node, ref: ls.wheel.mint()}
		ls.insts[id] = st
		ls.states.Add(1)
		if ls.cfg.Stable != nil {
			if s, ok := ls.cfg.Stable.Load(id); ok {
				if err := node.RestoreStable(s.Seq, s.Epoch, s.RepairGen); err == nil {
					st.saved = s
				}
			}
		}
		if ls.cfg.Rejoin {
			ls.apply(id, st, node.Recover())
			ls.settle(id, st)
		}
	}
	return st
}

// settle closes one instance's part of a step: the protocol timers it
// cancelled or superseded leave the wheel, and stable storage that
// changed is written through to Config.Stable. The caller holds ls.mu.
func (ls *Lockspace) settle(id uint64, st *instance) {
	ls.wheel.reap(st.ref, st.node)
	if ls.cfg.Stable == nil {
		return
	}
	cur := StableState{Seq: st.node.Seq(), Epoch: st.node.Epoch(), RepairGen: st.node.RepairGen()}
	if cur != st.saved {
		st.saved = cur
		ls.cfg.Stable.Save(id, cur)
	}
}

// acquire enqueues a waiter and issues the protocol request when it is
// first in line. The caller holds ls.mu.
func (ls *Lockspace) acquire(id uint64, st *instance, w *waiter) error {
	st.queue = append(st.queue, w)
	if len(st.queue) > 1 || st.held {
		ls.obsWaiters.Add(1)
		return nil // an earlier local waiter already drives the protocol
	}
	effs, err := st.node.RequestCS()
	if err != nil {
		st.queue = st.queue[:len(st.queue)-1]
		return err
	}
	ls.obsWaiters.Add(1)
	ls.apply(id, st, effs)
	return nil
}

// forceRelease ends the head waiter's hold unconditionally, drops its
// lease check and any cancelled waiters that queued behind it, and
// starts the next live waiter's request. The caller holds ls.mu.
func (ls *Lockspace) forceRelease(id uint64, st *instance) error {
	effs, err := st.node.ReleaseCS()
	if err != nil {
		return err
	}
	st.held = false
	st.fence = 0
	st.pop()
	ls.wheel.cancel(st.ref, wheelLease)
	ls.obsHeld.Add(-1)
	ls.obsWaiters.Add(-1)
	ls.apply(id, st, effs)
	for len(st.queue) > 0 && st.queue[0].abandoned {
		st.pop()
		ls.obsWaiters.Add(-1)
	}
	if len(st.queue) > 0 {
		effs, err := st.node.RequestCS()
		if err != nil {
			// Cannot happen (the release cleared the local wish); surface
			// loudly if the state machine disagrees.
			panic(fmt.Sprintf("lockspace: re-request after release: %v", err))
		}
		ls.apply(id, st, effs)
	}
	return nil
}

// cancel removes a waiter whose context ended. Not yet at the head: it
// leaves the FIFO with no protocol action — the regression PR 6 fixes is
// exactly this removal. At the head and granted (the grant raced the
// cancel): the hold is released. At the head with its request in flight:
// the protocol has no recall, so the waiter is marked abandoned and the
// eventual grant is given straight back (apply's Grant case). The caller
// holds ls.mu.
func (ls *Lockspace) cancel(id uint64, st *instance, w *waiter) {
	for i, q := range st.queue {
		if q != w {
			continue
		}
		switch {
		case i > 0:
			st.queue = append(st.queue[:i], st.queue[i+1:]...)
			ls.obsWaiters.Add(-1)
		case st.held:
			_ = ls.forceRelease(id, st)
		default:
			w.abandoned = true
		}
		return
	}
	// Not queued: already granted and released.
}

// armLease starts the lease countdown of the current hold, or renews it.
// One expiry check is pending per hold; a renewal just moves the
// deadline the pending check compares against. The caller holds ls.mu.
func (ls *Lockspace) armLease(id uint64, st *instance) {
	if ls.cfg.LeaseTTL <= 0 {
		return
	}
	st.leaseDeadline = ls.now() + ls.cfg.LeaseTTL
	if !ls.wheel.pending(st.ref, wheelLease) {
		ls.wheel.schedule(st.ref, id, wheelLease, 0, st.leaseDeadline)
	}
}

// leaseCheck handles the lease-expiry check of a hold (a hold that ended
// took its check with it): renewed holds re-arm for the remainder, lapsed
// holds are reclaimed through the ordinary §3 exit protocol — the token
// moves on, the next waiter is served, and the expired client's later
// Unlock/Keepalive reports ErrLeaseExpired. The reclaiming grant outranks
// the zombie's fence, so fence-checking resources are already refusing
// it. The caller holds ls.mu.
func (ls *Lockspace) leaseCheck(id uint64, st *instance) {
	if st.leaseDeadline > ls.now() {
		ls.wheel.schedule(st.ref, id, wheelLease, 0, st.leaseDeadline)
		return
	}
	ls.obsReclaims.Inc()
	st.reclaimedAt = time.Now()
	if fl := ls.cfg.Flight; fl != nil {
		fl.Record(obs.Event{
			At: time.Now().UnixNano(), Node: int(ls.cfg.Node.Self), Instance: id,
			Kind: "lease-reclaim", Peer: int(ocube.None), Fence: st.fence,
		})
	}
	_ = ls.forceRelease(id, st)
}

// apply executes one instance's effects: sends join the per-destination
// outbox (flushed once per step), timers take their slot in the wheel,
// grants are handed to the head waiter. The caller holds ls.mu.
func (ls *Lockspace) apply(id uint64, st *instance, effs []core.Effect) {
	for _, e := range effs {
		switch e := e.(type) {
		case *core.Send:
			to := e.Msg.To
			if len(ls.outbox[to]) == 0 {
				ls.dests = append(ls.dests, to)
			}
			ls.outbox[to] = append(ls.outbox[to], core.Envelope{Instance: id, Msg: e.Msg})
		case *core.StartTimer:
			// In place per (instance, kind): the arming this one replaces
			// could only have fired dead.
			ls.wheel.schedule(st.ref, id, e.Kind, e.Gen, ls.now()+e.Delay)
		case *core.Grant:
			if len(st.queue) == 0 {
				// A grant with no local waiter (defensive: the queue
				// discipline should make this unreachable) — give it back.
				if effs, err := st.node.ReleaseCS(); err == nil {
					ls.apply(id, st, effs)
				}
				continue
			}
			st.held = true
			st.fence = e.Fence
			ls.obsGrants.Inc()
			ls.obsHeld.Add(1)
			if !st.reclaimedAt.IsZero() {
				ls.obsReclaimLat.Observe(time.Since(st.reclaimedAt).Seconds())
				st.reclaimedAt = time.Time{}
			}
			w := st.queue[0]
			if w.abandoned {
				// The head cancelled while its request was in flight:
				// give the grant straight back and serve the next waiter.
				_ = ls.forceRelease(id, st)
				continue
			}
			w.fence, w.served = e.Fence, true
			ls.armLease(id, st)
			if w.granted != nil {
				close(w.granted)
			}
		}
	}
}

// flush sends what the step put in the outbox, one batch per touched
// destination, in touch order. Transport errors are equivalent to
// message loss, which the per-instance failure machinery tolerates. The
// caller holds ls.mu, and SendBatch does not wait for the peer: what a
// full session window cannot take yet queues inside the session.
func (ls *Lockspace) flush() {
	for _, to := range ls.dests {
		_ = ls.cfg.Transport.SendBatch(to, ls.outbox[to])
		ls.outbox[to] = ls.outbox[to][:0] // transport copied it; reuse the buffer
	}
	ls.dests = ls.dests[:0]
}
