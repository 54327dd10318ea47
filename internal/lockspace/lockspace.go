// Package lockspace is the keyed multi-instance lock service: thousands
// of independent open-cube mutexes — one per lock key — multiplexed over
// a single runtime. Messages travel as instance-tagged envelopes around
// the unchanged core.Message wire format; per-instance state machines
// are lazily instantiated on first touch (an untouched position of an
// instance is exactly a pristine core.Node: a node's view of an instance
// only changes by processing that instance's traffic); and every instance
// shares its node's resources. The node is one pure state machine
// (machine.go) under two drivers: the live one (this file) keeps it behind
// a mutex, stepped to completion by whichever goroutine has the input,
// batching envelopes per destination; the simulated one (mux.go) steps it
// from one typed-event engine.
//
// The unit of scale here is resources rather than nodes: the paper's
// O(log₂²N) per-critical-section bound holds per instance, and the
// lockspace serves K instances for the price of one shared runtime —
// the E9 experiment (internal/harness) sweeps K from 1 to 4096 under
// uniform and Zipf-skewed key popularity with crash/recovery injection.
package lockspace

//ocmxvet:live -- this file is the live goroutine runtime (wall clock, sessions,
// contexts); machine.go, wheel.go and mux.go stay under the determinism analyzer.

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/ocube"
	"repro/internal/transport"
)

var (
	// ErrClosed is returned by operations on a closed lockspace node.
	ErrClosed = errors.New("lockspace: closed")
	// ErrNotLocked is returned by Unlock when this node holds no lock on
	// the key.
	ErrNotLocked = errors.New("lockspace: key not locked by this node")
	// ErrLeaseExpired is returned by Unlock and Keepalive when the hold the
	// caller's fence names is gone: its lease lapsed and the lock was
	// reclaimed (possibly re-granted — the fence no longer matches the
	// current hold). The caller must treat its critical section as already
	// invalid; a FencedResource has been rejecting its fence since the
	// next grant touched it.
	ErrLeaseExpired = errors.New("lockspace: lease expired")
)

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
// the router that cuts E13's key space into slices (internal/harness). It
// re-hashes the id with the same FNV-1a discipline as KeyInstance (over
// the id's little-endian bytes) instead of taking id % shards directly:
// the simulated path uses DENSE instance ids, and a plain modulus would
// stripe them into perfectly regular — and perfectly correlated — groups,
// hiding exactly the hash-skew imbalance a production deployment sees.
// Every node and shard count derives the same routing, like KeyInstance.
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

// Config describes one live lockspace node.
type Config struct {
	// Node is the per-instance state-machine template: Self and P name
	// this node's position and the cube order; FT/Delta/... configure the
	// Section 5 failure handling of every instance.
	Node core.Config
	// Transport carries envelope batches between the lockspace nodes of a
	// node New builds; the caller owns its lifetime. Start sets it to the
	// session it builds.
	Transport transport.BatchTransport
	// LeaseTTL, when positive, bounds how long a grant stays valid without
	// renewal: a holder that neither Unlocks nor Keepalives within the TTL
	// has its hold reclaimed through the ordinary §3 exit protocol (the
	// token moves on; the next waiter is served), and its later Unlock or
	// Keepalive reports ErrLeaseExpired. The reclaiming grant carries a
	// higher fence, so fence-checking resources refuse the expired holder.
	LeaseTTL time.Duration
	// Stable, when set, persists each instance's Section 5 stable storage
	// (StableState) write-through at the end of each step, and the node's
	// life record, its last boot, under core.NoInstance. A node that finds
	// a record rejoins a cluster that may remember its previous life: each
	// instance is restored and instantiated through Section 5 recovery, as
	// a leaf searching for the living structure, for NewNode's initial
	// conditions (node 0 holds the token, fathers along the initial cube)
	// hold only at cluster birth, which is what a start without a store is.
	Stable StableStore
	// Metrics, when set, registers this node's live series (grants,
	// locks held, waiter depth, pending deadlines, lease reclaims and
	// their latency) in the given registry, labeled node=<self>. Nil
	// disables metric collection at zero cost: the handles stay nil and
	// every mutation is a nil-receiver no-op.
	Metrics *obs.Registry
	// Flight, when set, records every instance's token lineage (via
	// core.Config.Observe) plus lockspace-level events (lease reclaims)
	// into the shared flight recorder, stamped with wall time; Node.Observe,
	// when set too, still sees every event.
	Flight *obs.Flight
}

// Lockspace is one node of the live keyed lock service: the keyed Machine
// and the one real timer under its deadlines, guarded by one mutex.
// Whoever has an input — a client in Lock or Unlock, the loop goroutine
// with a received burst or a fired timer — takes mu, steps the machine to
// completion, writes stable storage through, sends the batches, re-aims
// the timer and only then lets go (DESIGN.md §16).
type Lockspace struct {
	cfg Config

	// stop is closed once (halt): by Close, or by a stable write that
	// failed. done is closed by the loop as it exits.
	stop, done chan struct{}
	halted     sync.Once

	// mu guards everything down to timer. What runs with it held waits for
	// nothing: the transport's SendBatch (end) does not wait for the peer.
	mu sync.Mutex
	// dead is set by the loop as it exits, or by a stable write that failed
	// (end), so later calls return ErrClosed.
	dead   bool
	m      *Machine
	leases *leases
	// The machine's clock is the time since epoch; timer is the one runtime
	// timer, aimed at the earliest of its deadlines (Machine.Aim). All of it
	// dies with the loop.
	epoch time.Time
	timer *time.Timer

	closed atomic.Bool
	// sess is the session Start built, owned by the node, and boot its
	// boot; nil and 0 under New.
	sess *transport.Session
	boot uint64

	// Metric handles (nil when Config.Metrics is nil; every mutation
	// below tolerates that — the zero-cost-when-off contract).
	obsHeld, obsWaiters, obsDeadlines *obs.Gauge
}

// leases is the live node's side of a hold (driver): it wakes the Lock a
// grant serves, starts its lease and accounts for the leases that lapse,
// inside a step, under the node's mutex. It is an object of its own so the
// machine does not point back at the node: a closed node is garbage.
type leases struct {
	ttl    time.Duration // LeaseTTL, or negative: no deadline
	self   ocube.Pos
	flight *obs.Flight
	// reclaimed stamps the lapse of each reclaimed key until its next local
	// grant reports the lapse-to-regrant latency.
	reclaimed map[uint64]time.Time

	obsGrants, obsReclaims *obs.Counter
	obsReclaimLat          *obs.Histogram
}

// parked is one Lock call in its key's FIFO (what the machine knows it
// by), written under ls.mu: granted is what a Lock that did not find its
// grant at home parks on (nil otherwise), closed by the step that brings
// the grant; fence is the grant's fencing token, zero until then.
type parked struct {
	granted chan struct{}
	fence   uint64
}

// CensusRow is one instance's snapshot in a Census (Machine.States): what
// the chaos harness's end-of-run checks read (at most one token per
// instance across surviving nodes; quiescence) and its autopsy writes.
type CensusRow = obs.NodeState

// Start starts a live node over link, in a reliable session it owns:
// Close, or a failed Start, closes the session and the link. The node's
// last boot (Config.Stable) plus one is written back before the node runs
// and becomes the session's, and a node that had a last life rejoins; with
// no store the boot is the wall clock and the node does not rejoin. sess
// is fitted to the node's failure timeouts (SessionConfig.Fit). With
// cfg.Metrics set the node exports its session's counters, the
// ocmx_session_* series; a node started again in the same registry takes
// them over, and they restart with it, as a process's do.
func Start(link transport.FrameLink, sess transport.SessionConfig, cfg Config) (*Lockspace, error) {
	boot, rejoin, err := nextLife(cfg.Stable)
	if err != nil {
		link.Close()
		return nil, err
	}
	sess.Boot = boot
	s := transport.NewSession(cfg.Node.Self, link, sess.Fit(cfg.Node))
	cfg.Transport = s
	return start(cfg, rejoin, s, boot)
}

// New builds and starts a lockspace node over a transport the caller
// brings and owns. Like Start it writes the next life record to
// cfg.Stable and rejoins if there was one.
func New(cfg Config) (*Lockspace, error) {
	if cfg.Transport == nil {
		return nil, errors.New("lockspace: nil transport")
	}
	_, rejoin, err := nextLife(cfg.Stable)
	if err != nil {
		return nil, err
	}
	return start(cfg, rejoin, nil, 0)
}

// nextLife writes the node's next life record to stable and returns its
// boot and whether there was a last life. With no store the boot is the
// wall clock, which grows across a process's restarts.
func nextLife(stable StableStore) (boot uint64, rejoin bool, err error) {
	if stable == nil {
		return uint64(time.Now().UnixNano()), false, nil
	}
	last, rejoin := stable.Load(core.NoInstance)
	boot = last.Seq + 1
	if err := stable.Save(core.NoInstance, StableState{Seq: boot}); err != nil {
		return 0, false, err
	}
	return boot, rejoin, nil
}

// start builds and starts the node, over sess when Start built one.
func start(cfg Config, rejoin bool, sess *transport.Session, boot uint64) (*Lockspace, error) {
	ls := &Lockspace{
		cfg:    cfg,
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
		epoch:  time.Now(),
		timer:  time.NewTimer(time.Hour),
		leases: &leases{self: cfg.Node.Self, flight: cfg.Flight, reclaimed: map[uint64]time.Time{}},
		sess:   sess,
		boot:   boot,
	}
	ls.leases.ttl = cmp.Or(max(cfg.LeaseTTL, 0), -1) // no TTL: a hold has no deadline
	tmpl := cfg.Node
	tmpl.Observe = obs.Observer(cfg.Flight, func() int64 { return time.Now().UnixNano() }, tmpl.Observe)
	var err error
	if ls.m, err = NewMachine(tmpl, rejoin, cfg.Stable, ls.leases); err != nil {
		if sess != nil {
			sess.Close()
		}
		return nil, err
	}
	ls.timer.Stop() // nothing is pending yet; end aims it
	if cfg.Metrics != nil {
		node := strconv.Itoa(int(cfg.Node.Self))
		ls.leases.obsGrants = cfg.Metrics.Counter("ocmx_lock_grants_total",
			"Lock grants served to this node's local clients.", "node", node)
		ls.leases.obsReclaims = cfg.Metrics.Counter("ocmx_lease_reclaims_total",
			"Lapsed holds reclaimed through the exit protocol.", "node", node)
		ls.obsHeld = cfg.Metrics.Gauge("ocmx_locks_held",
			"Keys currently held by this node's clients.", "node", node)
		ls.obsWaiters = cfg.Metrics.Gauge("ocmx_lock_waiters",
			"Local clients queued for a key (holders included).", "node", node)
		ls.obsDeadlines = cfg.Metrics.Gauge("ocmx_lock_deadlines_pending",
			"Protocol timers and lease checks pending in this node's deadline heap.", "node", node)
		ls.leases.obsReclaimLat = cfg.Metrics.Histogram("ocmx_lease_reclaim_seconds",
			"Lapse-to-next-local-grant latency of lease reclaims.",
			obs.LatencyBuckets(), "node", node)
		if sess != nil {
			ls.sessionSeries(cfg.Metrics, node)
		}
	}
	go ls.loop()
	return ls, nil
}

// sessionSeries registers the session's counters, read at scrape time,
// per node and, for retransmits and duplicate drops, per peer.
func (ls *Lockspace) sessionSeries(reg *obs.Registry, node string) {
	sess := ls.sess
	reg.CounterFunc("ocmx_session_frames_total", "Reliable-session data frames sent for the first time.",
		func() float64 { return float64(sess.Stats().Frames) }, "node", node)
	reg.CounterFunc("ocmx_session_ack_frames_total", "Pure ack frames sent: acknowledgements that found no data frame to ride.",
		func() float64 { return float64(sess.Stats().AckFrames) }, "node", node)
	reg.CounterFunc("ocmx_session_receipts_total", "Token acknowledgments the session gave its own node in place of a token-ack envelope.",
		func() float64 { return float64(sess.Stats().Receipts) }, "node", node)
	for p := range ocube.Pos(1 << ls.cfg.Node.P) {
		if p == ls.cfg.Node.Self {
			continue
		}
		peer := strconv.Itoa(int(p))
		reg.CounterFunc("ocmx_session_retransmits_total", "Reliable-session data frames sent again after a timeout.",
			func() float64 { return float64(sess.PeerStats()[p].Retransmits) }, "node", node, "peer", peer)
		reg.CounterFunc("ocmx_session_dup_drops_total", "Received session data frames discarded as duplicates.",
			func() float64 { return float64(sess.PeerStats()[p].DupDrops) }, "node", node, "peer", peer)
	}
}

// Self returns this node's position.
func (ls *Lockspace) Self() ocube.Pos { return ls.cfg.Node.Self }

// Boot returns the incarnation Start gave the node's session; 0 under New.
func (ls *Lockspace) Boot() uint64 { return ls.boot }

// SessionStats returns the counters of the session Start built; zero
// under New.
func (ls *Lockspace) SessionStats() transport.SessionStats {
	if ls.sess == nil {
		return transport.SessionStats{}
	}
	return ls.sess.Stats()
}

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

// end completes a step and releases ls.mu. Stable storage the step
// changed is written through first, and only then does what it sent leave
// — one batch per destination, in the order they were first touched — so
// a node never sends what it would not remember having sent. A write that
// fails sends none of the step and fail-stops the node, as its transport
// closing does: parked and later calls return ErrClosed, and end reports
// false. Transport errors are message loss, which the failure machinery
// tolerates, and SendBatch does not wait for the peer: what a full session
// window cannot take yet queues inside the session. Last the gauges are
// published and the timer is aimed at what the step scheduled. The caller
// holds ls.mu.
func (ls *Lockspace) end() bool {
	out, saves := ls.m.Drain()
	for _, w := range saves {
		if ls.cfg.Stable.Save(w.Instance, w.State) != nil {
			ls.dead = true
			ls.halt()
			ls.mu.Unlock()
			return false
		}
	}
	for len(out) > 0 {
		to, n := out[0].Msg.To, 0
		for i, env := range out { // the envelopes for to move to the front, in order
			if env.Msg.To == to {
				copy(out[n+1:i+1], out[n:i])
				out[n] = env
				n++
			}
		}
		_ = ls.cfg.Transport.SendBatch(to, out[:n]) // the transport copies it
		out = out[n:]
	}
	books := ls.m.Books()
	ls.obsHeld.Set(float64(books.Held))
	ls.obsWaiters.Set(float64(books.Waiting))
	ls.obsDeadlines.Set(float64(books.Pending))
	if at, ok := ls.m.Aim(); ok {
		ls.timer.Reset(at - ls.now())
	}
	ls.mu.Unlock()
	return true
}

// halt stops the loop and wakes every parked Lock.
func (ls *Lockspace) halt() { ls.halted.Do(func() { close(ls.stop) }) }

// Lock blocks until this node holds key's lock, or ctx is done, and
// returns the grant's fencing token: strictly increasing per key across
// re-grants (higher epoch or higher grant counter), so a storage system
// comparing fences rejects writes from any holder whose lock has since
// moved on — see opencubemx.FencedResource. The calling goroutine steps
// the instance itself: a token found at home is a grant without a wait,
// and a request that has to travel is on the transport before Lock parks.
// On cancellation the caller leaves the local FIFO at once (Machine.Cancel).
func (ls *Lockspace) Lock(ctx context.Context, key string) (uint64, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	id, w := KeyInstance(key), &parked{}
	if !ls.begin() {
		return 0, ErrClosed
	}
	err := ls.m.Lock(ls.now(), id, w)
	if err == nil && w.fence == 0 {
		w.granted = make(chan struct{})
	}
	if !ls.end() {
		return 0, ErrClosed
	}
	if err != nil {
		return 0, fmt.Errorf("lockspace: lock %q: %w", key, err)
	}
	if w.granted == nil {
		return w.fence, nil
	}
	// The wait also watches ls.done: the loop can die without ls.stop ever
	// closing — the transport closing under it (a killed node's session).
	select {
	case <-w.granted:
		return w.fence, nil
	case <-ctx.Done():
		if ls.begin() {
			ls.m.Cancel(ls.now(), id, w)
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
// value the Lock returned; if that hold is gone (its lease lapsed and the
// lock was reclaimed) Unlock reports ErrLeaseExpired. A zero fence
// releases whatever hold is current (the pre-fencing behavior).
func (ls *Lockspace) Unlock(key string, fence uint64) error {
	return ls.step("unlock", key, func(now time.Duration, id uint64) error {
		return ls.m.Unlock(now, id, fence)
	})
}

// Keepalive renews the lease of the hold fence names (0 = the current
// hold), pushing its expiry a full LeaseTTL out; with no LeaseTTL it only
// verifies the hold still stands. ErrLeaseExpired: that hold is gone.
func (ls *Lockspace) Keepalive(key string, fence uint64) error {
	return ls.step("keepalive", key, func(now time.Duration, id uint64) error {
		return ls.m.Keepalive(now, id, fence, ls.leases.ttl)
	})
}

// step runs do as one step of the node and names the call in its error.
func (ls *Lockspace) step(op, key string, do func(now time.Duration, id uint64) error) error {
	if !ls.begin() {
		return ErrClosed
	}
	err := do(ls.now(), KeyInstance(key))
	if !ls.end() {
		return ErrClosed
	}
	if err != nil {
		return fmt.Errorf("lockspace: %s %q: %w", op, key, err)
	}
	return nil
}

// granted wakes the Lock a grant serves and starts its lease.
func (l *leases) granted(id, fence uint64, who any) time.Duration {
	l.obsGrants.Inc()
	if at, ok := l.reclaimed[id]; ok {
		l.obsReclaimLat.Observe(time.Since(at).Seconds())
		delete(l.reclaimed, id)
	}
	w := who.(*parked)
	if w.fence = fence; w.granted != nil {
		close(w.granted)
	}
	return l.ttl
}

// ended accounts for a lapsed lease being reclaimed; a hold its client
// released needs nothing.
func (l *leases) ended(id, fence uint64, lapsed bool) {
	if !lapsed {
		return
	}
	now := time.Now()
	l.obsReclaims.Inc()
	l.reclaimed[id] = now
	if l.flight != nil {
		l.flight.Record(obs.Event{
			At: now.UnixNano(), Node: int(l.self), Instance: id,
			Kind: "lease-reclaim", Peer: int(ocube.None), Fence: fence,
		})
	}
}

// Census snapshots every instantiated instance between two steps, in
// instance order (Machine.States) — a consistent view for the chaos
// harness's end-of-run checks (at most one live token per instance across
// the surviving nodes, quiescence at rest) and its autopsy's state lines.
func (ls *Lockspace) Census() ([]CensusRow, error) {
	if !ls.begin() {
		return nil, ErrClosed
	}
	defer ls.mu.Unlock()
	return ls.m.States(nil), nil
}

// Close stops the node's loop and drops every pending deadline with it:
// nothing the runtime still holds refers to a closed node. It closes the
// session Start built, and with it the link; a transport given to New is
// the caller's to close.
func (ls *Lockspace) Close() error {
	if ls.closed.Swap(true) {
		return nil
	}
	ls.halt()
	<-ls.done
	// The instantaneous gauges reset so a chaos member restarting this node
	// in the same registry starts clean.
	ls.obsHeld.Set(0)
	ls.obsWaiters.Set(0)
	ls.obsDeadlines.Set(0)
	if ls.sess != nil {
		return ls.sess.Close()
	}
	return nil
}

// drainMax bounds how many received batches one step of the loop handles.
// It is a constant, not a knob: a burst's envelopes to one peer share a
// frame up to this many batches deep, and what the first of them sent —
// and a client at the mutex — waits for at most this many handlers.
const drainMax = 64

// loop has what arrives on its own, inbound envelope batches and the one
// deadline timer, and steps the node under ls.mu like any caller. A
// received batch is handled together with whatever further batches are
// already waiting, up to drainMax, and only then flushed: one batch per
// destination for the whole burst, at once for a lone input. On its way
// out — Close, a failed stable write, or the transport closing under it —
// it marks the node dead.
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
			if !ok || !ls.begin() {
				return
			}
			ls.receive(batch)
			open := ls.drain(recv)
			ls.end()
			if !open {
				return
			}
		case <-ls.timer.C:
			if !ls.begin() {
				return
			}
			ls.m.Tick(ls.now())
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
	now := ls.now()
	for _, env := range batch {
		if env.Instance != core.NoInstance { // untagged traffic is not ours
			ls.m.Envelope(now, env)
		}
	}
}

// now is the machine's clock: the time since the node started.
func (ls *Lockspace) now() time.Duration { return time.Since(ls.epoch) }
