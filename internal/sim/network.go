package sim

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/ocube"
	"repro/internal/trace"
	"repro/internal/transport"
)

// DelayFn draws the transmission delay for one message sent at virtual
// time now, or returns Lost to drop it in transit. Implementations must
// never exceed the δ configured on the nodes when fault tolerance is
// enabled, or the failure machinery's timeouts become unsound. (Losing
// messages breaks the paper's reliable-channel assumption outright; the
// lossy models exist to measure exactly what that costs each algorithm —
// see the E8 experiment.)
type DelayFn func(rng *rand.Rand, now time.Duration, from, to ocube.Pos) time.Duration

// Lost is the DelayFn sentinel for a message lost in transit: it is
// recorded as sent but never delivered.
const Lost time.Duration = math.MinInt64

// FixedDelay returns a constant-delay model (FIFO per channel and
// globally deterministic ordering).
func FixedDelay(d time.Duration) DelayFn {
	return func(*rand.Rand, time.Duration, ocube.Pos, ocube.Pos) time.Duration { return d }
}

// UniformDelay draws uniformly from [min, max]; with min < max, channels
// are not FIFO, matching the paper's weakest channel assumption.
func UniformDelay(min, max time.Duration) DelayFn {
	return func(rng *rand.Rand, _ time.Duration, _, _ ocube.Pos) time.Duration {
		if max <= min {
			return min
		}
		return min + time.Duration(rng.Int63n(int64(max-min+1)))
	}
}

// LossyDelay drops each message independently with probability p and
// otherwise delegates to inner. The loss draw (one Float64) is made
// before the inner delay draw, and no delay is drawn for a lost message —
// the documented RNG consumption order that keeps lossy runs replayable.
func LossyDelay(p float64, inner DelayFn) DelayFn {
	return func(rng *rand.Rand, now time.Duration, from, to ocube.Pos) time.Duration {
		if rng.Float64() < p {
			return Lost
		}
		return inner(rng, now, from, to)
	}
}

// PartitionWindow models a transient network partition: messages sent
// during [start, end) between nodes on different sides of the cut are
// lost; everything else delegates to inner. The side function partitions
// the positions (e.g. by high bit for a half-cube split).
func PartitionWindow(start, end time.Duration, side func(ocube.Pos) bool, inner DelayFn) DelayFn {
	return func(rng *rand.Rand, now time.Duration, from, to ocube.Pos) time.Duration {
		if now >= start && now < end && side(from) != side(to) {
			return Lost
		}
		return inner(rng, now, from, to)
	}
}

// Config describes a simulated network.
type Config struct {
	// P is the cube order; the network has 2^P nodes.
	P int
	// Node is the per-node configuration template for the open-cube
	// algorithm; Self is filled in per node. Leave Policy nil for the
	// open-cube policy. Ignored when Algorithm is set.
	Node core.Config
	// Algorithm selects the algorithm under simulation. The zero value
	// runs the open-cube algorithm built from Node.
	Algorithm Algorithm
	// Delay models message transmission; nil means FixedDelay(1ms).
	Delay DelayFn
	// Seed seeds the run's random generator.
	Seed int64
	// CSTime is the simulated critical-section duration; granted nodes
	// release after this long. Nil means release immediately.
	CSTime func(rng *rand.Rand) time.Duration
	// Session, when set, interposes the reliable session layer on every
	// inter-node send: each node runs a transport.Machine — the state
	// machine transport.Session runs live — driven by the engine (see
	// session.go). Zero fields take the machine's defaults, the same as
	// live; RTO should exceed the delay model's round trip plus RTO/4 of
	// ack delay or healthy traffic retransmits spuriously. Boot is every
	// node's, and stays what it is across Fail and Recover.
	Session *transport.SessionConfig
	// Recorder, when set, tallies every sent message.
	Recorder *trace.Recorder
	// OnEffect, when set, observes every effect any node emits.
	OnEffect func(node ocube.Pos, e core.Effect)
	// Flight, when set, records every open-cube node's token lineage
	// (core.Config.Observe) into the recorder, stamped with virtual time
	// under instance 0; Node.Observe, when set too, still sees every
	// event. Purely observational — runs are byte-identical with or
	// without it. Ignored when Algorithm is set (the baselines have no
	// observe hook).
	Flight *obs.Flight
}

// Network binds an algorithm's peers to an Engine. It is the single
// runtime behind every experiment: the open-cube algorithm, the general
// scheme instances and the classic baselines all run on the same event
// heap, delay models, failure injection and quiescence tracking.
type Network struct {
	Eng *Engine

	cfg      Config
	n        int
	peers    []Peer
	nodes    []*core.Node // peers[i] when it is an open-cube node, else nil
	timers   []TimerPeer  // peers[i] when it arms timers, else nil
	tokens   []TokenPeer  // peers[i] when it reports token possession, else nil
	recovers []RecoveringPeer
	keyed    []Keyed // a keyed network's positions (NewKeyed); peers is nil then
	down     []bool
	csAt     []csHold // per node: in its critical section, under which fence
	rng      *rand.Rand

	// Session-layer state (nil/zero unless Config.Session is set): one
	// machine per node, built on first use, which aims its node's engine
	// timer slot — sessSlot+node, after every node's protocol timers
	// (transport.Machine.Aim).
	sess        []*transport.Machine
	sessSlot    int32
	sessUnacked int                  // envelopes accepted but not yet acked
	sessOut     []transport.Outgoing // scratch: the frames of the machine call in progress
	sessRcpt    []core.Envelope      // scratch: the receipts of the frame being landed
	sessSlab    []core.Envelope      // one-envelope batches are cut from here

	onGrant  func(ocube.Pos)
	onAccept func(ocube.Pos)

	// busy caches, per node, the peer's Busy predicate; it is refreshed
	// after every event that touches a node, so quiescence detection is
	// O(1) per event instead of O(N).
	busy  []bool
	busyN int

	inflight       int   // undelivered messages
	inflightTokens int   // undelivered token messages
	pendingOps     int   // scheduled RequestCS / auto-release events
	lostToFailed   int64 // messages dropped at failed destinations
	lostInTransit  int64 // messages dropped by the delay model (Lost)

	// holds counts the grants and judges every overlap; the single mutex
	// is its id 0.
	holds metrics.Holds
}

// csHold is whether one node is in its critical section and the fence of
// the grant it entered under: what it hands back to the accountant when it
// leaves, kept together so world construction pays one slice allocation.
type csHold struct {
	in    bool
	fence uint64
}

// New builds the network with every peer in its algorithm's pristine
// initial state (token at position 0).
func New(cfg Config) (*Network, error) {
	w, err := newNetwork(cfg, core.NumTimerKinds)
	if err != nil {
		return nil, err
	}
	algo := cfg.Algorithm
	if algo.New == nil {
		node := cfg.Node
		node.Observe = obs.Observer(cfg.Flight, func() int64 { return int64(w.Eng.Now()) }, node.Observe)
		algo = openCube(cfg.P, node)
	}
	peers, err := algo.New(w.n)
	if err != nil {
		return nil, err
	}
	if len(peers) != w.n {
		return nil, fmt.Errorf("sim: algorithm %s built %d peers, want %d", algo.Name, len(peers), w.n)
	}
	w.peers = peers
	for i, p := range peers {
		w.nodes[i], _ = p.(*core.Node)
		w.timers[i], _ = p.(TimerPeer)
		w.tokens[i], _ = p.(TokenPeer)
		w.recovers[i], _ = p.(RecoveringPeer)
	}
	return w, nil
}

// NewKeyed builds a keyed network: position builds the Keyed state
// machine of each node, which the Network steps in place — wishes arrive
// through RequestInstanceCS, and every envelope on the wire names its
// instance. The positions account for their own critical sections, so
// Grants and the violation counts stay zero; Config.Node, Algorithm,
// CSTime, OnEffect and Flight belong to single-mutex networks and are
// ignored.
func NewKeyed(cfg Config, position func(x ocube.Pos) (Keyed, error)) (*Network, error) {
	w, err := newNetwork(cfg, 1) // a position's deadlines share one timer slot
	if err != nil {
		return nil, err
	}
	w.keyed = make([]Keyed, w.n)
	for i := range w.keyed {
		if w.keyed[i], err = position(ocube.Pos(i)); err != nil {
			return nil, err
		}
	}
	return w, nil
}

// newNetwork builds the network's tables and engine for cfg, with slots
// timer slots per node, and no peers yet.
func newNetwork(cfg Config, slots int) (*Network, error) {
	if cfg.P < 0 || cfg.P > 20 {
		return nil, fmt.Errorf("sim: P=%d out of range", cfg.P)
	}
	if cfg.Delay == nil {
		cfg.Delay = FixedDelay(time.Millisecond)
	}
	n := 1 << cfg.P
	w := &Network{
		Eng:      &Engine{},
		cfg:      cfg,
		n:        n,
		nodes:    make([]*core.Node, n),
		timers:   make([]TimerPeer, n),
		tokens:   make([]TokenPeer, n),
		recovers: make([]RecoveringPeer, n),
		down:     make([]bool, n),
		csAt:     make([]csHold, n),
		busy:     make([]bool, n),
		rng:      rand.New(rand.NewSource(cfg.Seed)),
	}
	timerSlots := n * slots
	w.sessSlot = int32(timerSlots)
	if cfg.Session != nil {
		w.sess = make([]*transport.Machine, n)
		timerSlots += n
	}
	w.Eng.bind(w, timerSlots)
	return w, nil
}

// N returns the node count.
func (w *Network) N() int { return w.n }

// Node exposes an open-cube node's state machine for inspection; it
// returns nil when the network runs a different algorithm.
func (w *Network) Node(x ocube.Pos) *core.Node { return w.nodes[x] }

// Peer exposes a peer for algorithm-specific inspection; nil on a keyed
// network.
func (w *Network) Peer(x ocube.Pos) Peer {
	if w.peers == nil {
		return nil
	}
	return w.peers[x]
}

// Down reports whether x is currently failed.
func (w *Network) Down(x ocube.Pos) bool { return w.down[x] }

// Grants returns the number of critical-section entries so far.
func (w *Network) Grants() int64 { return w.holds.Grants() }

// Violations returns how many grants overlapped another critical section —
// zero in every safe run; the tie-break ablation makes this observable.
func (w *Network) Violations() int64 { return w.holds.Overlaps() }

// ViolationsFenced returns the overlapping grants whose fences differed
// from every concurrent holder's: a fence-checking application rejects
// the stale side, so these never corrupt fenced state.
func (w *Network) ViolationsFenced() int64 { return w.holds.Fenced() }

// ViolationsVisible returns the overlapping grants indistinguishable by
// fence (equal values — always 0 for the unfenced baselines): the
// violations that reach even a fence-checking application.
func (w *Network) ViolationsVisible() int64 { return w.holds.Visible() }

// Regenerations returns the number of token regenerations the network's
// open-cube nodes counted (core.Host.Regenerations); a peer that wraps a
// node counts none.
func (w *Network) Regenerations() (sum int64) {
	for _, n := range w.nodes {
		if n != nil {
			sum += n.Host().Regenerations()
		}
	}
	return sum
}

// StaleTokens returns the number of stale-epoch token sightings the
// network's open-cube nodes counted: tokens observed carrying an epoch
// below the observer's, proving the corresponding regeneration raced a
// token that was still alive rather than replacing a lost one (a lower
// bound — see core.Host.StaleTokens).
func (w *Network) StaleTokens() (sum int64) {
	for _, n := range w.nodes {
		if n != nil {
			sum += n.Host().StaleTokens()
		}
	}
	return sum
}

// LostInTransit returns the number of messages the delay model dropped.
func (w *Network) LostInTransit() int64 { return w.lostInTransit }

// LostToFailed returns the number of messages dropped because their
// destination was down at delivery time.
func (w *Network) LostToFailed() int64 { return w.lostToFailed }

// LiveTokens counts tokens held by up nodes plus tokens in flight.
// Peers that do not report token possession count as holding none.
func (w *Network) LiveTokens() int {
	held := 0
	for i, tp := range w.tokens {
		if tp != nil && !w.down[i] && tp.TokenHere() {
			held++
		}
	}
	return held + w.inflightTokens
}

// checkPos rejects a position outside the network where the caller named
// it: scheduled as given, it would only surface as an index panic inside
// handle when the event fires, far from the mistake.
func (w *Network) checkPos(x ocube.Pos) {
	if !x.Valid(w.n) {
		panic(fmt.Sprintf("sim: position %v out of range for %d nodes", x, w.n))
	}
}

// RequestCS schedules node x's wish to enter the critical section after
// delay d of virtual time.
func (w *Network) RequestCS(x ocube.Pos, d time.Duration) {
	w.checkPos(x)
	if w.keyed != nil {
		panic("sim: untagged RequestCS on a keyed network")
	}
	w.pendingOps++
	w.Eng.scheduleWish(d, x, int32(core.NoInstance))
}

// RequestInstanceCS schedules node x's wish to enter instance inst's
// critical section after delay d, on a keyed network (NewKeyed). Like a
// position, an instance the wish event cannot carry — NoInstance, or
// above math.MaxInt32 — panics here, at the caller.
func (w *Network) RequestInstanceCS(x ocube.Pos, inst uint64, d time.Duration) {
	w.checkPos(x)
	if w.keyed == nil {
		panic(fmt.Sprintf("sim: instance request on a network that is not keyed, at %v", x))
	}
	if inst == core.NoInstance || inst > math.MaxInt32 {
		panic(fmt.Sprintf("sim: instance %d out of range for a wish at %v", inst, x))
	}
	w.pendingOps++
	w.Eng.scheduleWish(d, x, int32(inst))
}

// Fail crashes node x after delay d: it stops processing and every
// message in flight towards it is lost.
func (w *Network) Fail(x ocube.Pos, d time.Duration) {
	w.checkPos(x)
	w.pendingOps++
	w.Eng.schedule(d, evFail, int32(x))
}

// Recover restarts node x after delay d. A peer with a recovery protocol
// (the open-cube node) rejoins via search_father; the classic baselines
// simply resume with their pre-crash state — and whatever was in flight
// towards them while down is gone for good.
func (w *Network) Recover(x ocube.Pos, d time.Duration) {
	w.checkPos(x)
	w.pendingOps++
	w.Eng.schedule(d, evRecover, int32(x))
}

// handle is the engine's typed-event dispatcher: every simulation action
// scheduled by the network comes back through this single switch. Each
// event touches exactly one node, whose cached busy bit is refreshed at
// the end.
func (w *Network) handle(ent heapEntry) {
	var x ocube.Pos
	switch ent.kind {
	case evDeliver:
		env := w.Eng.envs.take(ent.ref)
		x = env.Msg.To
		w.inflight--
		if env.Msg.Kind == core.KindToken {
			w.inflightTokens--
		}
		if w.down[x] {
			w.lostToFailed++
			return
		}
		w.hand(x, env)
	case evSessFrame:
		a := w.Eng.frames.take(ent.ref)
		w.sessArrive(a.to, a.f)
		return
	case evTimer:
		key := ent.ref
		if key >= w.sessSlot {
			w.sessTick(ocube.Pos(key - w.sessSlot))
			return
		}
		if w.keyed != nil {
			x = ocube.Pos(key)
			if w.down[x] {
				return
			}
			w.keyed[x].Tick(w.Eng.Now())
			w.emit(x)
			break
		}
		var kind core.TimerKind
		x, kind = timerFromKey(key)
		tp := w.timers[x]
		if tp == nil || w.down[x] {
			return
		}
		gen := w.Eng.slotGen[key]
		if tp.TimerGen(kind) != gen {
			// Dead timer: cancelled or superseded after its last re-arm,
			// with no chance for the slot table to reuse its entry.
			return
		}
		w.apply(x, tp.HandleTimer(kind, gen))
	case evRequest:
		w.pendingOps--
		x = ent.node()
		if w.down[x] {
			return
		}
		if inst := uint64(ent.ref); inst != core.NoInstance {
			if w.keyed[x].Wish(w.Eng.Now(), inst) != nil {
				return
			}
			w.emit(x)
			break
		}
		effs, err := w.peers[x].RequestCS()
		if err != nil {
			return
		}
		if w.onAccept != nil {
			w.onAccept(x)
		}
		w.apply(x, effs)
	case evFail:
		w.pendingOps--
		x = ocube.Pos(ent.ref)
		if w.down[x] {
			return
		}
		w.exitCS(x)
		w.down[x] = true
		if w.keyed != nil {
			// A keyed position ends its instances' holds (the analogue of
			// exitCS above, per instance).
			w.keyed[x].Crash()
		}
	case evRecover:
		w.pendingOps--
		x = ocube.Pos(ent.ref)
		if !w.down[x] {
			return
		}
		w.down[x] = false
		if w.keyed != nil {
			w.keyed[x].Recover(w.Eng.Now())
			w.emit(x)
		} else if rp := w.recovers[x]; rp != nil {
			w.apply(x, rp.Recover())
		}
	case evRelease:
		w.pendingOps--
		x = ocube.Pos(ent.ref)
		if w.down[x] {
			return
		}
		effs, err := w.peers[x].ReleaseCS()
		if err != nil {
			// The node is no longer in the CS this release was scheduled
			// for (it failed there and recovered): the failure already
			// settled its hold.
			return
		}
		// A baseline peer that failed in its CS and recovered with stale
		// state lets ReleaseCS succeed, though the failure already settled
		// its hold: exitCS is guarded for that.
		w.exitCS(x)
		w.apply(x, effs)
	}
	w.refreshBusy(x)
}

// hand gives node to one envelope the wire or its session delivered: an
// untagged one to the peer, a tagged one to its keyed position.
func (w *Network) hand(to ocube.Pos, env core.Envelope) {
	if env.Instance == core.NoInstance {
		w.apply(to, w.peers[to].HandleMessage(env.Msg))
		return
	}
	if w.keyed == nil {
		// An instance-tagged envelope reached a single-instance peer: a
		// keyed position's bug, not a runtime condition.
		panic(fmt.Sprintf("sim: envelope for non-keyed peer %v: %v", to, env))
	}
	w.keyed[to].Envelope(w.Eng.Now(), env)
	w.emit(to)
}

// emit closes an input to keyed position x: the envelopes it sent go on
// the wire straight from its outbox, in the order they were sent (each
// draws its delay), and its one timer slot is aimed at its earliest
// deadline when that moved.
func (w *Network) emit(x ocube.Pos) {
	k := w.keyed[x]
	for _, env := range k.Outbox() {
		w.deliver(env)
	}
	if at, ok := k.Aim(); ok {
		w.Eng.scheduleTimer(int32(x), 0, at-w.Eng.Now())
	}
}

// refreshBusy recomputes node x's contribution to the busy count.
func (w *Network) refreshBusy(x ocube.Pos) {
	var b bool
	switch {
	case w.down[x]:
	case w.keyed != nil:
		b = w.keyed[x].Busy()
	default:
		b = w.peers[x].Busy()
	}
	if b != w.busy[x] {
		w.busy[x] = b
		if b {
			w.busyN++
		} else {
			w.busyN--
		}
	}
}

// apply executes a node's effects: sends become future deliveries, timers
// become future HandleTimer calls, grants schedule the simulated critical
// section.
func (w *Network) apply(x ocube.Pos, effs []core.Effect) {
	for _, e := range effs {
		if w.cfg.OnEffect != nil {
			w.cfg.OnEffect(x, e)
		}
		switch e := e.(type) {
		case *core.Send:
			w.deliver(core.Envelope{Instance: core.NoInstance, Msg: e.Msg})
		case *core.StartTimer:
			w.Eng.scheduleTimer(timerKey(x, e.Kind), e.Gen, e.Delay)
		case *core.Grant:
			w.enterCS(x, e.Fence)
		}
	}
}

// deliver puts env on the wire: into its sender's session when
// Config.Session is set, else as one draw from the delay model, which
// may declare it lost. Lost envelopes are still recorded as sent — the
// sender paid for them — but never reach their destination. The delay
// draw depends only on (time, from, to), so a multiplexed run consumes
// the rng exactly like a single-instance run with the same send
// sequence.
func (w *Network) deliver(env core.Envelope) {
	if w.sess != nil {
		w.sessSend(env)
		return
	}
	d, ok := w.transmit(env.Msg)
	if !ok {
		return
	}
	w.Eng.scheduleEnv(d, env)
}

// transmit draws the delay for one outbound message and does the shared
// accounting; ok is false when the message was lost in transit.
func (w *Network) transmit(m core.Message) (d time.Duration, ok bool) {
	if !m.To.Valid(w.n) {
		// A state machine addressed a nonexistent node (e.g. a request
		// sent to a nil father). Fail loudly with the message instead of
		// an index panic at delivery time: the simulator's job is to pin
		// protocol invariants, not to paper over them.
		panic(fmt.Sprintf("sim: %v sends to invalid destination: %v", m.From, m))
	}
	d = w.cfg.Delay(w.rng, w.Eng.Now(), m.From, m.To)
	w.record(m)
	if d == Lost {
		w.lostInTransit++
		return 0, false
	}
	w.inflight++
	if m.Kind == core.KindToken {
		w.inflightTokens++
	}
	return d, true
}

// OnGrant registers a callback invoked at every critical-section entry.
// Set it before running.
func (w *Network) OnGrant(fn func(ocube.Pos)) { w.onGrant = fn }

// OnRequest registers a callback invoked when a scheduled RequestCS is
// accepted by its node (rejected duplicates of a still-pending wish do
// not fire it). Paired with OnGrant it measures per-request waiting time
// at the driver level: each node has at most one outstanding request, so
// accepts and grants at one node pair up FIFO. Set it before running.
func (w *Network) OnRequest(fn func(ocube.Pos)) { w.onAccept = fn }

// enterCS accounts a grant under its fencing token (core.Grant.Fence)
// with the accountant and schedules the release. The grant is counted
// before onGrant fires, so the callback reads Grants() with it included.
func (w *Network) enterCS(x ocube.Pos, fence uint64) {
	w.holds.Enter(0, fence)
	w.csAt[x] = csHold{in: true, fence: fence}
	if w.onGrant != nil {
		w.onGrant(x)
	}
	var dur time.Duration
	if w.cfg.CSTime != nil {
		dur = w.cfg.CSTime(w.rng)
	}
	w.pendingOps++
	w.Eng.schedule(dur, evRelease, int32(x))
}

// exitCS ends node x's critical section, if it is in one.
func (w *Network) exitCS(x ocube.Pos) {
	if w.csAt[x].in {
		w.csAt[x].in = false
		w.holds.Exit(0, w.csAt[x].fence)
	}
}

// record tallies a sent message with the run's recorder.
func (w *Network) record(m core.Message) {
	if w.cfg.Recorder != nil {
		w.cfg.Recorder.Count(m)
	}
}

// Busy reports whether any protocol activity is outstanding: in-flight
// messages, scheduled operations, or peers reporting busy. Pending timers
// alone do not make the network busy. The per-node predicate is cached
// incrementally (refreshBusy), so this is O(1) and cheap enough for
// RunWhile to call before every event.
func (w *Network) Busy() bool {
	return w.inflight > 0 || w.pendingOps > 0 || w.busyN > 0 || w.sessUnacked > 0
}

// RunUntilQuiescent steps until no protocol activity remains or virtual
// time passes maxTime; it reports whether quiescence was reached. A run
// that lost a message an algorithm cannot recover from (a baseline under
// failure) typically returns false here with no events left — the
// deadlocked peers still report busy.
func (w *Network) RunUntilQuiescent(maxTime time.Duration) bool {
	return w.Eng.RunWhile(w.Busy, maxTime)
}

// Snapshot copies the current father pointers into an ocube.Cube for
// structural validation. Meaningful at quiescent instants with all nodes
// up, on open-cube networks only (nil otherwise).
func (w *Network) Snapshot() *ocube.Cube {
	c := ocube.MustNew(w.cfg.P)
	for i, node := range w.nodes {
		if node == nil {
			return nil
		}
		c.SetFather(ocube.Pos(i), node.Father())
	}
	return c
}
