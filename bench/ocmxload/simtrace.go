package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/ocube"
	"repro/internal/sim"
)

// The traced run of a sim workload interposes where the simulator lets an
// outsider in: timed wrapper peers handed to sim.Config.Algorithm (the
// *core.Node inside each), sim.Config.OnEffect and sim.Config.Delay under
// sim.New; core.Config.Observe and SpaceConfig.Delay under NewSpace, whose
// mux builds its own peers. Everything runs on the engine's one goroutine.
const (
	// coreSpanEvery and transmitSpanEvery sample the two high-volume span
	// kinds; the counters and the time totals see every call.
	coreSpanEvery     = 4096
	transmitSpanEvery = 256
	// simSpanAcquires caps the virtual-time acquire spans (first traced
	// repetition of sim-faulty only).
	simSpanAcquires = 256
)

// simTap is the traced run's recorder for one sim workload.
type simTap struct {
	log  *spanLog
	root int64
	now  func() time.Duration // the current repetition's virtual clock

	rep   int64 // span id of the current repetition
	first bool  // first traced repetition: acquire spans are recorded

	coreNS, calls, timers int64
	transmissions         int64

	// pending names the send the next Delay draw belongs to: OnEffect and
	// Observe fire immediately before the network draws the delay.
	pending struct {
		name    string
		acquire int64
		set     bool
	}
	open     map[ocube.Pos]int64 // node → its acquire span, request accepted and not yet granted
	acquires int
}

func newSimTap() *simTap {
	t := &simTap{log: newSpanLog(), open: map[ocube.Pos]int64{}}
	t.root = t.log.add(span{Name: "run", Node: -1})
	return t
}

func (t *simTap) beginRep(i int) {
	t.first = i == 0
	t.rep = t.log.add(span{Parent: t.root, Name: "rep", Start: t.log.since(time.Now()), Node: -1})
	clear(t.open)
}

// endRep closes the repetition's span and adds its phases.
func (t *simTap) endRep(r *simRep) {
	for _, id := range t.open {
		t.log.spans[id-1].End = t.log.spans[id-1].Start // accepted, never granted
	}
	end := t.log.since(r.to.at)
	t.log.spans[t.rep-1].End = end
	t.log.spans[t.root-1].End = end
	at := t.log.spans[t.rep-1].Start
	for _, ph := range []struct {
		name string
		s    float64
	}{{"workload.gen", r.genS}, {"sim.new", r.newS}, {"sim.schedule", r.schedS}} {
		d := int64(ph.s * 1e9)
		t.log.add(span{Parent: t.rep, Name: ph.name, Start: at, End: at + d, Node: -1})
		at += d
	}
	t.log.add(span{Parent: t.rep, Name: "sim.run", Start: t.log.since(r.from.at), End: end, Node: -1})
}

// delay wraps the workload's delay model: the per-transmission tap.
func (t *simTap) delay(inner sim.DelayFn) sim.DelayFn {
	return func(rng *rand.Rand, now time.Duration, from, to ocube.Pos) time.Duration {
		d := inner(rng, now, from, to)
		t.transmissions++
		p := t.pending
		t.pending.set = false
		if !p.set {
			p.name = "sim.transmit.session" // an ack or a retransmission: no effect preceded it
		}
		if p.acquire != 0 || t.transmissions%transmitSpanEvery == 0 {
			end := now + d
			if d == sim.Lost {
				end = now
				p.name += ".lost"
			}
			parent := p.acquire
			if parent == 0 {
				parent = t.rep
			}
			t.log.add(span{Parent: parent, Name: p.name, Start: int64(now), End: int64(end),
				Acquire: p.acquire, Node: int(from), Clock: "virtual"})
		}
		return d
	}
}

// observe is the core.Config.Observe tap under NewSpace: it names the
// transmission that follows.
func (t *simTap) observe(ev core.TokenEvent) {
	switch ev.Kind {
	case core.TokenEvRequest, core.TokenEvLend, core.TokenEvTransfer, core.TokenEvForward:
		t.pending.name, t.pending.acquire, t.pending.set = "sim.transmit."+ev.Kind.String(), 0, true
	}
}

// effect is the sim.Config.OnEffect tap under sim.New.
func (t *simTap) effect(_ ocube.Pos, e core.Effect) {
	switch e := e.(type) {
	case *core.StartTimer:
		t.timers++
	case *core.Send:
		t.pending.name, t.pending.set = "sim.transmit."+e.Msg.Kind.String(), true
		t.pending.acquire = 0
		if e.Msg.Kind == core.KindRequest || e.Msg.Kind == core.KindToken {
			t.pending.acquire = t.open[e.Msg.Source]
		}
	}
}

// accepted opens a virtual-time acquire span when node x's wish is
// accepted; granted closes it.
func (t *simTap) accepted(x ocube.Pos) {
	if !t.first || t.acquires >= simSpanAcquires {
		return
	}
	t.acquires++
	id := t.log.add(span{Parent: t.rep, Name: "acquire", Start: int64(t.now()), Node: int(x), Clock: "virtual"})
	t.log.spans[id-1].Acquire = id
	t.open[x] = id
}

func (t *simTap) granted(x ocube.Pos) {
	if id, ok := t.open[x]; ok {
		t.log.spans[id-1].End = int64(t.now())
		delete(t.open, x)
	}
}

// timedPeer wraps one open-cube node: it times every call into the state
// machine, passes the effect slice through untouched and retains nothing.
type timedPeer struct {
	n *core.Node
	t *simTap
}

func (p *timedPeer) timed(name string, start time.Time) {
	d := time.Since(start)
	p.t.coreNS += int64(d)
	p.t.calls++
	if p.t.calls%coreSpanEvery == 0 {
		s := p.t.log.since(start)
		p.t.log.add(span{Parent: p.t.rep, Name: name, Start: s, End: s + int64(d), Node: int(p.n.Self())})
	}
}

func (p *timedPeer) RequestCS() ([]core.Effect, error) {
	defer p.timed("core.RequestCS", time.Now())
	return p.n.RequestCS()
}

func (p *timedPeer) ReleaseCS() ([]core.Effect, error) {
	defer p.timed("core.ReleaseCS", time.Now())
	return p.n.ReleaseCS()
}

func (p *timedPeer) HandleMessage(m core.Message) []core.Effect {
	defer p.timed("core.HandleMessage", time.Now())
	return p.n.HandleMessage(m)
}

func (p *timedPeer) HandleTimer(kind core.TimerKind, gen uint64) []core.Effect {
	defer p.timed("core.HandleTimer", time.Now())
	return p.n.HandleTimer(kind, gen)
}

func (p *timedPeer) Recover() []core.Effect {
	defer p.timed("core.Recover", time.Now())
	return p.n.Recover()
}

func (p *timedPeer) Busy() bool                       { return p.n.Busy() }
func (p *timedPeer) TimerGen(k core.TimerKind) uint64 { return p.n.TimerGen(k) }
func (p *timedPeer) TokenHere() bool                  { return p.n.TokenHere() }

var (
	_ sim.TimerPeer      = (*timedPeer)(nil)
	_ sim.RecoveringPeer = (*timedPeer)(nil)
	_ sim.TokenPeer      = (*timedPeer)(nil)
)

// algorithm builds the open-cube algorithm out of timed wrapper peers.
func (t *simTap) algorithm(p int, nc core.Config) sim.Algorithm {
	return sim.Algorithm{
		Name: "open-cube (timed)",
		New: func(n int) ([]sim.Peer, error) {
			peers := make([]sim.Peer, n)
			for i := range peers {
				cfg := nc
				cfg.Self, cfg.P = ocube.Pos(i), p
				node, err := core.NewNode(cfg)
				if err != nil {
					return nil, fmt.Errorf("node %d: %w", i, err)
				}
				peers[i] = &timedPeer{n: node, t: t}
			}
			return peers, nil
		},
	}
}

// runSimTraced times bare reference repetitions, then the same seed with
// the taps on, and reports the per-layer metrics.
func runSimTraced(opt runOptions, size simSize, rep repFunc, keyed bool, probe *simRep) (*result, error) {
	refN, tracedN := simRefReps, simTracedReps
	if opt.smoke {
		refN, tracedN = 1, 1
	}
	ref, err := timedReps(opt, size, rep, probe, refN, 0, nil)
	if err != nil {
		return nil, fmt.Errorf("reference repetitions: %w", err)
	}
	m := map[string]float64{}
	lockMetrics(m, probe, ref)
	tap := newSimTap()
	traced, err := timedReps(opt, size, rep, probe, tracedN, 0, tap)
	if err != nil {
		return nil, fmt.Errorf("traced repetitions: %w", err)
	}

	g := float64(probe.grants)
	steps := float64(probe.steps)
	wall := func(r *simRep) float64 { return r.wall.Seconds() }
	refWall, tracedWall := median(repColumn(ref, wall)), median(repColumn(traced, wall))
	all := append(append([]*simRep{probe}, ref...), traced...)
	m["sim.events_per_grant"] = steps / g
	m["workload.gen_s"] = minOf(repColumn(all, func(r *simRep) float64 { return r.genS }))
	m["bench.trace_overhead_share"] = 1 - refWall/tracedWall
	probeLayer(m, probe, size.p)
	newS := minOf(repColumn(all, func(r *simRep) float64 { return r.newS }))
	if keyed {
		m["lockspace.space.ns_per_event"] = refWall * 1e9 / steps
		m["lockspace.space.states_per_key"] = float64(probe.states) / float64(size.keys)
		m["lockspace.space.new_s"] = newS
	} else {
		reps := float64(len(traced))
		coreS := float64(tap.coreNS) / 1e9 / reps
		m["core.handle_ns"] = float64(tap.coreNS) / float64(tap.calls)
		m["core.calls_per_grant"] = float64(tap.calls) / reps / g
		m["core.timers_per_grant"] = float64(tap.timers) / reps / g
		m["sim.ns_per_event"] = (refWall - coreS) * 1e9 / steps
		m["sim.new_s"] = newS
	}
	wins := make([]window, len(ref))
	for i, r := range ref {
		wins[i] = window{r.from, r.to}
	}
	runtimeLayer(m, wins, probe.grants*int64(len(ref)))
	if err := tap.log.finish(opt.spans); err != nil {
		return nil, err
	}
	return &result{
		attempted: probe.accepted, failed: probe.accepted - probe.grants, metrics: m,
		notes: []string{
			fmt.Sprintf("probe, %d bare reference repetitions (median %.3f s), %d traced (median %.3f s); %d spans kept",
				len(ref), refWall, len(traced), tracedWall, len(tap.log.spans)),
		},
	}, nil
}
