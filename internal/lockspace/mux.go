package lockspace

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/ocube"
	"repro/internal/sim"
	"repro/internal/trace"
)

// This file is the simulated driver of the lockspace: a Space runs K
// independent open-cube mutex instances over ONE typed-event engine, a
// keyed sim.Network whose every position is the keyed Machine (machine.go)
// the live node steps. The Network steps it in place under virtual time
// (sim.Keyed): it hands the machine its inputs, puts the outbox on the
// wire as it stands and aims the position's one engine timer slot at the
// machine's earliest deadline. What a machine sends travels as
// instance-tagged envelopes on the Network's one delivery path, the one
// the untagged single-mutex traffic takes too. Grants never reach the
// Network: the position hands each instance's holds to the Space's
// accountant under the instance's id (the Network's would count two locks
// held at one position as one lock's violation), and a simulated critical
// section is a hold whose length is drawn at the grant and which the
// machine ends itself.

// SpaceConfig describes a simulated lockspace.
type SpaceConfig struct {
	// P is the cube order; each instance runs on 2^P positions.
	P int
	// Instances is the number of lock instances K (dense ids 0..K-1),
	// at most math.MaxInt32.
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
	// Flight, when set, records every instance's token lineage (via
	// core.Config.Observe) stamped with virtual time — the feed of the
	// stall autopsies E13's slices write; Node.Observe, when set too, still
	// sees every event. Purely observational: the run is byte-identical
	// with or without it.
	Flight *obs.Flight
}

// Space is a simulated keyed lock-space: K instances multiplexed over a
// 2^P-position network on one event heap. All methods are
// single-threaded, like the engine they drive.
type Space struct {
	cfg   SpaceConfig
	w     *sim.Network
	peers []*muxPeer
	rng   *rand.Rand    // CS-duration stream, separate from the delay stream
	holds metrics.Holds // instance inst's holds under id inst-1

	onGrant  func(inst int, x ocube.Pos)
	onAccept func(inst int, x ocube.Pos)
	// sent, when set, sees every envelope a position sends, at its virtual
	// send time and in send order (the trace golden's digest).
	sent func(at time.Duration, env core.Envelope)
}

// NewSpace builds the space with every instance in its pristine initial
// state (token of every instance at position 0) and no state machines
// instantiated yet.
func NewSpace(cfg SpaceConfig) (*Space, error) {
	if cfg.Instances < 1 || cfg.Instances > math.MaxInt32 {
		// Instance inst wishes as inst+1, which a sim wish event carries
		// up to math.MaxInt32.
		return nil, fmt.Errorf("lockspace: Instances=%d out of range", cfg.Instances)
	}
	sp := &Space{
		cfg: cfg,
		rng: rand.New(rand.NewSource(cfg.Seed ^ 0x5DEECE66D)),
	}
	tmpl := cfg.Node
	tmpl.P = cfg.P
	tmpl.Observe = obs.Observer(cfg.Flight, func() int64 { return int64(sp.w.Eng.Now()) }, tmpl.Observe)
	w, err := sim.NewKeyed(sim.Config{
		P:        cfg.P,
		Delay:    cfg.Delay,
		Seed:     cfg.Seed,
		Recorder: cfg.Recorder,
	}, func(x ocube.Pos) (sim.Keyed, error) {
		// One machine per position: the template is validated here, once,
		// so lazy instantiation cannot fail mid-run.
		tmpl.Self = x
		p := &muxPeer{sp: sp, self: x}
		var err error
		if p.Machine, err = NewMachine(tmpl, false, nil, p); err != nil {
			return nil, err
		}
		sp.peers = append(sp.peers, p) // positions are built in order
		return p, nil
	})
	if err != nil {
		return nil, err
	}
	sp.w = w
	return sp, nil
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
func (sp *Space) Grants() int64 { return sp.holds.Grants() }

// Violations returns how many grants overlapped another critical section
// OF THE SAME instance — distinct instances are independent locks and
// may overlap freely.
func (sp *Space) Violations() int64 { return sp.holds.Overlaps() }

// Regenerations returns the token regenerations across all instances.
func (sp *Space) Regenerations() int64 { return sp.books().Regenerations }

// StaleTokens returns the stale-epoch token sightings across instances.
func (sp *Space) StaleTokens() int64 { return sp.books().StaleTokens }

// States returns how many (position, instance) state machines were
// actually instantiated — the lazy-instantiation footprint, versus the
// 2^P × K worst case.
func (sp *Space) States() int { return sp.books().States }

// books adds up what the positions' machines counted.
func (sp *Space) books() (sum Books) {
	for _, p := range sp.peers {
		b := p.Books()
		sum.States += b.States
		sum.Regenerations += b.Regenerations
		sum.StaleTokens += b.StaleTokens
	}
	return sum
}

// Autopsy writes a JSONL autopsy of the space's current protocol state:
// per-node state for every instance that is still busy or holds a
// token, plus — when a Flight recorder is attached — the busy
// instances' recent token lineage. Called by E13 when a slice's settle
// window expires before quiescence (Run returned false).
func (sp *Space) Autopsy(w io.Writer, reason string) error {
	var states []obs.NodeState
	var insts []uint64
	for _, p := range sp.peers {
		states = append(states, p.States(func(r obs.NodeState) bool { return r.Busy || r.TokenHere })...)
	}
	for _, r := range states {
		if r.Busy {
			insts = append(insts, r.Instance)
		}
	}
	slices.Sort(insts)
	if insts = slices.Compact(insts); insts == nil {
		// No busy instance: scope the lineage to nothing rather than
		// letting WriteAutopsy default to every instance ever recorded.
		insts = []uint64{}
	}
	details := map[string]any{
		"virtual_now_ns": int64(sp.w.Eng.Now()),
		"grants":         sp.Grants(),
		"violations":     sp.Violations(),
		"regenerations":  sp.Regenerations(),
	}
	return obs.WriteAutopsy(w, reason, details, sp.cfg.Flight, insts, states)
}

// muxPeer is one position of the Space: the keyed Machine the Network
// steps in place (sim.Keyed), the driver of its holds (see granted) and
// the simulated client of every instance at the position.
type muxPeer struct {
	*Machine
	sp   *Space
	self ocube.Pos
}

// granted is the space-level counterpart of the Network's enterCS
// (driver): the hold enters the accountant under its instance, and the
// critical section's length is drawn — the analogue of its evRelease.
func (p *muxPeer) granted(inst, fence uint64, _ any) time.Duration {
	sp, idx := p.sp, int(inst)-1
	sp.holds.Enter(idx, fence)
	if sp.onGrant != nil {
		sp.onGrant(idx, p.self)
	}
	if sp.cfg.CSTime == nil {
		return 0
	}
	return sp.cfg.CSTime(sp.rng)
}

// ended exits a critical section that ended or died with the node
// (driver): a crashed holder is not counted against a later grant
// elsewhere.
func (p *muxPeer) ended(inst, fence uint64, _ bool) { p.sp.holds.Exit(int(inst)-1, fence) }

// Wish registers the local wish to lock an instance. A position has one
// simulated client per instance: a wish while one is queued or holds is
// refused with core.ErrBusy, like an overlapping Peer.RequestCS. The
// instance is looked up once, for the refusal and the Lock both.
func (p *muxPeer) Wish(now time.Duration, inst uint64) error {
	if inst == core.NoInstance || int(inst) > p.sp.cfg.Instances {
		return fmt.Errorf("lockspace: instance %d out of range at %v", inst, p.self)
	}
	st := p.ensure(now, inst)
	if len(st.queue) > 0 {
		return core.ErrBusy
	}
	if p.sp.onAccept != nil {
		p.sp.onAccept(int(inst)-1, p.self)
	}
	return p.enqueue(now, st, nil)
}

// Outbox hands the Network what the last input sent; a Space keeps no
// stable storage, so there is nothing to save first.
func (p *muxPeer) Outbox() []core.Envelope {
	out, _ := p.Drain()
	if p.sp.sent != nil {
		now := p.sp.w.Eng.Now()
		for _, env := range out {
			p.sp.sent(now, env)
		}
	}
	return out
}

// Busy reports whether any hosted instance has protocol activity.
func (p *muxPeer) Busy() bool { return p.books.Busy > 0 }

var _ sim.Keyed = (*muxPeer)(nil)
