package lockspace

import (
	"cmp"
	"fmt"
	"io"
	"math/rand"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/ocube"
	"repro/internal/sim"
	"repro/internal/trace"
)

// This file is the simulated half of the lockspace: a Space runs K
// independent open-cube mutex instances over ONE typed-event engine by
// installing a multiplexing peer (muxPeer) at every position. Instance
// state machines are lazily instantiated on first touch — an untouched
// (position, instance) pair is exactly a pristine core.Node, because a
// node's view of instance k only ever changes by processing instance-k
// traffic — and all their timers share the node's single engine timer
// slot through the private timerWheel. Grants never reach the Network:
// the mux settles critical-section occupancy per instance (the Network's
// per-node accounting would miscount two different locks held at one
// position as a violation) and schedules releases on its own wheel.

// muxTimerKind is the engine-facing timer slot the wheel multiplexes
// every instance deadline onto; the specific kind value is arbitrary
// because the mux peer owns the whole per-node slot space.
const muxTimerKind = core.TimerSuspicion

// denseSlotCap bounds the dense per-position slot array: up to this many
// instances every position pre-allocates K node pointers. Above it the
// space switches to sparse slots keyed by instance id: at the sharded
// runtime's scale (E13: millions of keys split into per-shard spaces of
// tens of thousands) a dense array would cost 2^P·K slots per shard
// while the lazily touched population is a few states per key, so the
// sparse index tracks only what actually exists. Both representations
// are behaviorally identical — TestSparseSlotsMatchDense pins it.
const denseSlotCap = 4096

// SpaceConfig describes a simulated lockspace.
type SpaceConfig struct {
	// P is the cube order; each instance runs on 2^P positions.
	P int
	// Instances is the number of lock instances K (dense ids 0..K-1).
	Instances int
	// Node is the per-instance node template (Self and P are filled in
	// per position); leave Policy nil for the open-cube policy.
	Node core.Config
	// Delay models message transmission; nil means FixedDelay(1ms).
	Delay sim.DelayFn
	// Seed seeds the run (delay draws and CS durations).
	Seed int64
	// CSTime is the simulated critical-section duration per grant; nil
	// means release immediately.
	CSTime func(rng *rand.Rand) time.Duration
	// Recorder, when set, tallies every sent envelope.
	Recorder *trace.Recorder
	// Logf, when set, receives a line per simulator action (debugging).
	Logf func(format string, args ...any)
	// Flight, when set, records every instance's token lineage (via
	// core.Config.Observe) stamped with virtual time — the feed of the
	// stall autopsies the sharded runtime writes. Purely observational:
	// the run is byte-identical with or without it.
	Flight *obs.Flight

	// forceSparse drops the dense-slot fast path regardless of Instances
	// (test hook: the representations must be behaviorally identical).
	forceSparse bool
}

// Space is a simulated keyed lock-space: K instances multiplexed over a
// 2^P-position network on one event heap. All methods are
// single-threaded, like the engine they drive.
type Space struct {
	cfg   SpaceConfig
	w     *sim.Network
	peers []*muxPeer
	rng   *rand.Rand // CS-duration stream, separate from the delay stream

	occupancy   []int32 // live CS holders per instance (violation accounting)
	grants      int64
	violations  int64
	regens      int64
	staleTokens int64
	states      int // (position, instance) machines actually instantiated

	onGrant  func(inst int, x ocube.Pos)
	onAccept func(inst int, x ocube.Pos)
}

// NewSpace builds the space with every instance in its pristine initial
// state (token of every instance at position 0) and no state machines
// instantiated yet.
func NewSpace(cfg SpaceConfig) (*Space, error) {
	if cfg.Instances < 1 {
		return nil, fmt.Errorf("lockspace: Instances=%d out of range", cfg.Instances)
	}
	sp := &Space{
		cfg:       cfg,
		rng:       rand.New(rand.NewSource(cfg.Seed ^ 0x5DEECE66D)),
		occupancy: make([]int32, cfg.Instances),
	}
	tmpl := cfg.Node
	tmpl.P = cfg.P
	if cfg.Flight != nil {
		tmpl.Observe = flightObserver(cfg.Flight, func() int64 { return int64(sp.w.Eng.Now()) })
	}
	algo := sim.Algorithm{
		Name: "lockspace",
		New: func(n int) ([]sim.Peer, error) {
			sp.peers = make([]*muxPeer, n)
			out := make([]sim.Peer, n)
			for i := range out {
				// One host per position: the template is validated here,
				// once, so lazy instantiation cannot fail mid-run.
				tmpl.Self = ocube.Pos(i)
				host, err := core.NewHost(tmpl)
				if err != nil {
					return nil, fmt.Errorf("lockspace: node template: %w", err)
				}
				p := &muxPeer{sp: sp, self: ocube.Pos(i), host: host}
				if cfg.Instances <= denseSlotCap && !cfg.forceSparse {
					p.dense = make([]int32, cfg.Instances)
				} else {
					p.index = make(map[uint64]int32)
				}
				sp.peers[i] = p
				out[i] = p
			}
			return out, nil
		},
	}
	w, err := sim.New(sim.Config{
		P:         cfg.P,
		Algorithm: algo,
		Delay:     cfg.Delay,
		Seed:      cfg.Seed,
		Recorder:  cfg.Recorder,
		Logf:      cfg.Logf,
	})
	if err != nil {
		return nil, err
	}
	sp.w = w
	return sp, nil
}

// flightObserver returns the core.Config.Observe hook both keyed drivers
// install on their hosts when a flight recorder is attached: every
// instance's protocol events go into fl under the instance the reporting
// node was minted for, stamped by now (virtual time here, wall time
// live).
func flightObserver(fl *obs.Flight, now func() int64) func(core.TokenEvent) {
	return func(ev core.TokenEvent) {
		fl.Record(obs.Event{
			At: now(), Node: int(ev.Self), Instance: ev.Instance,
			Kind: ev.Kind.String(), Peer: int(ev.Peer), Epoch: ev.Epoch,
			Fence: ev.Fence, Seq: ev.Seq, Note: ev.Reason,
		})
	}
}

// Network exposes the underlying simulated network (failure injection,
// loss counters, virtual clock).
func (sp *Space) Network() *sim.Network { return sp.w }

// Request schedules node x's wish to lock instance inst after delay d.
// An instance or a position out of range panics here, at the caller (the
// position check is the Network's).
func (sp *Space) Request(inst int, x ocube.Pos, d time.Duration) {
	if inst < 0 || inst >= sp.cfg.Instances {
		panic(fmt.Sprintf("lockspace: instance %d out of range", inst))
	}
	sp.w.RequestInstanceCS(x, uint64(inst)+1, d)
}

// Run steps the simulation until no protocol activity remains or virtual
// time passes maxTime; it reports whether quiescence was reached.
func (sp *Space) Run(maxTime time.Duration) bool { return sp.w.RunUntilQuiescent(maxTime) }

// OnGrant registers a callback invoked at every critical-section entry
// of any instance. Set it before running.
func (sp *Space) OnGrant(fn func(inst int, x ocube.Pos)) { sp.onGrant = fn }

// OnRequest registers a callback invoked when an instance request is
// accepted by its node's state machine (a duplicate wish while one is
// still pending does not fire it). Paired with OnGrant it measures
// accept→grant waiting time at the driver: a node has at most one
// outstanding wish per instance, so per-(instance, node) accepts and
// grants pair up FIFO. Set it before running.
func (sp *Space) OnRequest(fn func(inst int, x ocube.Pos)) { sp.onAccept = fn }

// Grants returns the critical sections served across all instances.
func (sp *Space) Grants() int64 { return sp.grants }

// Violations returns how many grants overlapped another critical section
// OF THE SAME instance — distinct instances are independent locks and
// may overlap freely.
func (sp *Space) Violations() int64 { return sp.violations }

// Regenerations returns the token regenerations across all instances.
func (sp *Space) Regenerations() int64 { return sp.regens }

// StaleTokens returns the stale-epoch token sightings across instances.
func (sp *Space) StaleTokens() int64 { return sp.staleTokens }

// States returns how many (position, instance) state machines were
// actually instantiated — the lazy-instantiation footprint, versus the
// 2^P × K worst case.
func (sp *Space) States() int { return sp.states }

// Autopsy writes a JSONL autopsy of the space's current protocol state:
// per-node state for every instance that is still busy or holds a
// token, plus — when a Flight recorder is attached — the busy
// instances' recent token lineage. Called by the sharded runtime when a
// slice's settle window expires before quiescence (Run returned false).
func (sp *Space) Autopsy(w io.Writer, reason string) error {
	var states []obs.NodeState
	seen := make(map[uint64]bool)
	var insts []uint64
	for _, p := range sp.peers {
		for _, n := range p.byInstance() {
			if !n.Busy() && !n.TokenHere() {
				continue
			}
			inst := n.Instance()
			states = append(states, obs.NodeState{
				Node: int(p.self), Instance: inst, Father: int(n.Father()),
				TokenHere: n.TokenHere(), Asking: n.Asking(), InCS: n.InCS(),
				Searching: n.Searching(), QueueLen: n.QueueLen(), Epoch: n.Epoch(),
			})
			if n.Busy() && !seen[inst] {
				seen[inst] = true
				insts = append(insts, inst)
			}
		}
	}
	slices.Sort(insts)
	if insts == nil {
		// No busy instance: scope the lineage to nothing rather than
		// letting WriteAutopsy default to every instance ever recorded.
		insts = []uint64{}
	}
	details := map[string]any{
		"virtual_now_ns": int64(sp.w.Eng.Now()),
		"grants":         sp.grants,
		"violations":     sp.violations,
		"regenerations":  sp.regens,
	}
	return obs.WriteAutopsy(w, reason, details, sp.cfg.Flight, insts, states)
}

// noteGrant is the space-level counterpart of the Network's enterCS:
// per-instance occupancy, violation accounting and release scheduling.
func (sp *Space) noteGrant(p *muxPeer, ref int32, inst uint64) {
	sp.grants++
	idx := int(inst) - 1
	sp.occupancy[idx]++
	if sp.occupancy[idx] > 1 {
		sp.violations++
	}
	if sp.onGrant != nil {
		sp.onGrant(idx, p.self)
	}
	var dur time.Duration
	if sp.cfg.CSTime != nil {
		dur = sp.cfg.CSTime(sp.rng)
	}
	p.wheel.schedule(ref, inst, wheelRelease, 0, sp.w.Eng.Now()+dur)
}

// muxPeer multiplexes every instance hosted at one position behind the
// sim.Peer seam. It implements the InstancePeer, TimerPeer, FailingPeer
// and RecoveringPeer capabilities; grants are swallowed (see noteGrant)
// and sends re-emitted as instance-tagged envelopes.
//
// Every state machine is minted by the position's core.Host and listed
// in nodes in instantiation order; its index there — its ref — is also
// its row in the wheel's slot table, so a deadline finds its machine
// without a lookup. An instance id resolves to its ref through one of two
// representations chosen at construction (see denseSlotCap): the dense
// array or the sparse index. Everything order-sensitive visits instances
// in ascending id order in both modes (byInstance), so the two replay
// identically.
type muxPeer struct {
	sp    *Space
	self  ocube.Pos
	host  *core.Host
	nodes []*core.Node     // every instantiated machine, in instantiation order
	dense []int32          // by instance-1: ref+1, zero until touched (nil slice when sparse)
	index map[uint64]int32 // sparse: instance id → ref (nil when dense)
	wheel timerWheel
	em    core.Emitter

	gen     uint64 // engine-facing timer generation
	armed   bool
	armedAt time.Duration
	busyN   int // hosted machines reporting Busy
}

// lookup returns the ref of the instance's state machine, or -1 when the
// instance was never touched at this position.
func (p *muxPeer) lookup(inst uint64) int32 {
	if p.dense != nil {
		return p.dense[inst-1] - 1
	}
	if ref, ok := p.index[inst]; ok {
		return ref
	}
	return -1
}

// ensure returns the instance's ref and state machine, instantiating it
// pristine on first touch.
func (p *muxPeer) ensure(inst uint64) (int32, *core.Node) {
	if ref := p.lookup(inst); ref >= 0 {
		return ref, p.nodes[ref]
	}
	n := p.host.NewNode(inst)
	ref := p.wheel.mint()
	if p.dense != nil {
		p.dense[inst-1] = ref + 1
	} else {
		p.index[inst] = ref
	}
	p.nodes = append(p.nodes, n)
	p.sp.states++
	return ref, n
}

// byInstance returns the instantiated machines in ascending instance
// order — the fixed iteration order deterministic replay requires.
func (p *muxPeer) byInstance() []*core.Node {
	out := append([]*core.Node(nil), p.nodes...)
	slices.SortFunc(out, func(a, b *core.Node) int { return cmp.Compare(a.Instance(), b.Instance()) })
	return out
}

// settle closes one call into machine ref. Its Busy transition across
// the call is folded into the peer's count — wasBusy is what it reported
// before; every call is bracketed this way, Failed zeroes the count and
// Recover recounts, so it needs no per-machine cache. And the timers the
// call cancelled leave the wheel: each was an idle engine event to come.
func (p *muxPeer) settle(ref int32, n *core.Node, wasBusy bool) {
	if b := n.Busy(); b != wasBusy {
		if b {
			p.busyN++
		} else {
			p.busyN--
		}
	}
	p.wheel.reap(ref, n)
}

// translate re-emits an instance's effects in mux form: sends become
// tagged envelopes, timers go to the wheel, grants are settled at the
// space, counters are folded. The inner effect slice expires at the next
// call into any instance of this position (they share the host's
// scratch), so translation copies everything it keeps.
func (p *muxPeer) translate(ref int32, inst uint64, effs []core.Effect) {
	for _, e := range effs {
		switch e := e.(type) {
		case *core.Send:
			p.em.SendEnvelope(core.Envelope{Instance: inst, Msg: e.Msg})
		case *core.StartTimer:
			p.wheel.schedule(ref, inst, e.Kind, e.Gen, p.sp.w.Eng.Now()+e.Delay)
		case *core.Grant:
			p.sp.noteGrant(p, ref, inst)
		case *core.TokenRegenerated:
			p.sp.regens++
		case *core.StaleToken:
			p.sp.staleTokens++
		}
	}
}

// rearm keeps the single engine timer aimed at the wheel's earliest
// deadline. A stale engine fire (wheel emptied or deadline moved later)
// is a cheap no-op at dispatch, so rearm only ever tightens.
func (p *muxPeer) rearm() {
	at, ok := p.wheel.earliest()
	if !ok {
		return
	}
	if p.armed && p.armedAt <= at {
		return
	}
	p.gen++
	p.armed, p.armedAt = true, at
	p.em.StartTimer(muxTimerKind, p.gen, at-p.sp.w.Eng.Now())
}

// release ends an instance's simulated critical section (wheel-driven,
// the analogue of the Network's evRelease).
func (p *muxPeer) release(ref int32, inst uint64) {
	node := p.nodes[ref]
	was := node.Busy()
	effs, err := node.ReleaseCS()
	if err != nil {
		// The instance is no longer in the CS this release was scheduled
		// for; nothing to settle (crash settlement ran in Failed, which
		// also cleared the wheel — reaching this is defensive).
		return
	}
	idx := int(inst) - 1
	if p.sp.occupancy[idx] > 0 {
		p.sp.occupancy[idx]--
	}
	p.translate(ref, inst, effs)
	p.settle(ref, node, was)
}

// --- sim.Peer ---

// RequestCS rejects untagged requests: every lockspace wish names an
// instance.
func (p *muxPeer) RequestCS() ([]core.Effect, error) {
	return nil, fmt.Errorf("lockspace: untagged RequestCS on mux peer %v", p.self)
}

// ReleaseCS rejects untagged releases; the wheel drives releases.
func (p *muxPeer) ReleaseCS() ([]core.Effect, error) {
	return nil, fmt.Errorf("lockspace: untagged ReleaseCS on mux peer %v", p.self)
}

// HandleMessage rejects untagged traffic (the Network routes tagged
// envelopes to HandleEnvelope).
func (p *muxPeer) HandleMessage(m core.Message) []core.Effect {
	panic(fmt.Sprintf("lockspace: untagged message at mux peer %v: %v", p.self, m))
}

// Busy reports whether any hosted instance has protocol activity.
func (p *muxPeer) Busy() bool { return p.busyN > 0 }

// --- sim.InstancePeer ---

// HandleEnvelope delivers one instance's protocol message.
func (p *muxPeer) HandleEnvelope(env core.Envelope) []core.Effect {
	p.em.Begin()
	if env.Instance == core.NoInstance || int(env.Instance) > p.sp.cfg.Instances {
		panic(fmt.Sprintf("lockspace: envelope instance %d out of range at %v", env.Instance, p.self))
	}
	ref, node := p.ensure(env.Instance)
	was := node.Busy()
	p.translate(ref, env.Instance, node.HandleMessage(env.Msg))
	p.settle(ref, node, was)
	p.rearm()
	return p.em.Take()
}

// RequestInstanceCS registers the local wish to lock an instance.
func (p *muxPeer) RequestInstanceCS(inst uint64) ([]core.Effect, error) {
	p.em.Begin()
	if inst == core.NoInstance || int(inst) > p.sp.cfg.Instances {
		return nil, fmt.Errorf("lockspace: instance %d out of range at %v", inst, p.self)
	}
	ref, node := p.ensure(inst)
	was := node.Busy()
	effs, err := node.RequestCS()
	if err != nil {
		return nil, err
	}
	if p.sp.onAccept != nil {
		p.sp.onAccept(int(inst)-1, p.self)
	}
	p.translate(ref, inst, effs)
	p.settle(ref, node, was)
	p.rearm()
	return p.em.Take(), nil
}

// --- sim.TimerPeer ---

// HandleTimer services the wheel: every due instance deadline fires, in
// (deadline, schedule-order) sequence, then the engine timer is re-aimed
// at the next one.
func (p *muxPeer) HandleTimer(_ core.TimerKind, gen uint64) []core.Effect {
	p.em.Begin()
	p.armed = false
	if gen != p.gen {
		return nil
	}
	now := p.sp.w.Eng.Now()
	for {
		ent, ok := p.wheel.popDue(now)
		if !ok {
			break
		}
		if ent.kind == wheelRelease {
			p.release(ent.ref, ent.inst)
			continue
		}
		// Live: settle reaps what a call cancels or supersedes.
		node := p.nodes[ent.ref]
		was := node.Busy()
		p.translate(ent.ref, ent.inst, node.HandleTimer(ent.kind, ent.gen))
		p.settle(ent.ref, node, was)
	}
	p.rearm()
	return p.em.Take()
}

// TimerGen returns the engine-facing timer generation.
func (p *muxPeer) TimerGen(core.TimerKind) uint64 { return p.gen }

// --- sim.FailingPeer / sim.RecoveringPeer ---

// Failed settles the crash instant: instances in their critical section
// release their occupancy (their grant died with the node), every local
// deadline is void, and the busy count is zeroed (a down node never
// reports busy). Per-instance settlement is independent, so the visit
// order is immaterial.
func (p *muxPeer) Failed() {
	for _, n := range p.nodes {
		if idx := int(n.Instance()) - 1; n.InCS() && p.sp.occupancy[idx] > 0 {
			p.sp.occupancy[idx]--
		}
	}
	p.busyN = 0
	p.wheel.clear()
	p.armed = false
}

// Recover restarts every instantiated instance through its Section 5
// rejoin, in instance order, and recounts the busy machines from zero —
// where Failed left the count.
func (p *muxPeer) Recover() []core.Effect {
	p.em.Begin()
	p.busyN = 0
	for _, n := range p.byInstance() {
		ref := p.lookup(n.Instance())
		p.translate(ref, n.Instance(), n.Recover())
		p.settle(ref, n, false)
	}
	p.rearm()
	return p.em.Take()
}

// Interface compliance.
var (
	_ sim.InstancePeer   = (*muxPeer)(nil)
	_ sim.TimerPeer      = (*muxPeer)(nil)
	_ sim.FailingPeer    = (*muxPeer)(nil)
	_ sim.RecoveringPeer = (*muxPeer)(nil)
)
