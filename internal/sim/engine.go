// Package sim is a deterministic discrete-event simulator for the
// protocol state machines in internal/core. Nodes execute instantaneously
// at virtual-time events; messages are delivered after pluggable random
// delays drawn from a seeded generator, so whole runs — including failure
// injection and timer-driven recovery — replay exactly from a seed.
//
// The simulator stands in for the paper's Intel iPSC/2 testbed: the
// reported metric (message counts) depends only on the logical structure
// and interleavings, which the simulator reproduces under the paper's
// assumption of a bounded transmission delay δ.
//
// The event queue is an inlined 4-ary min-heap of 24-byte typed entries
// of seven kinds: envelope deliveries and session frames keep their
// payloads out of line in two free-listed arenas, while timer fires and
// scheduled operations carry everything in the entry itself — a wish its
// node and instance alike — so the hot loop allocates nothing per event
// and heap sifts move three words (no closures, no container/heap
// interface boxing, no large-struct copies).
// Timer events additionally keep a slot index per (node, kind): re-arming
// a timer reschedules its existing heap entry in place instead of
// abandoning a dead entry until its fire time, which keeps fault-tolerant
// runs — where suspicion timers are re-armed on nearly every message —
// from dragging a heap full of corpses.
//
// Every message on the simulated wire is a core.Envelope, with one arena
// and one delivery path for all of them: the single-mutex algorithms'
// traffic is untagged (core.NoInstance) and reaches Peer.HandleMessage, a
// keyed network's is tagged and reaches its position's Keyed.Envelope.
//
// Beside the heap runs the arrivals lane (lane): a chunked FIFO that
// takes every non-timer entry scheduled at or after its own tail — a
// request schedule pushed in time order above all — in O(1) with no
// copying, so the heap holds the in-flight set instead of every pending
// arrival. Lane and heap are each ordered by (at, seq) and the engine
// always takes the smaller head, which is the same total order one heap
// would produce: same-instant events, zero-delay ones included, run in
// schedule order.
//
// With Config.Session the network is the second driver of
// transport.Machine — transport.Session is the live one — stepping one
// machine per node (session.go), so the lossy delay models exercise the
// session code that ships.
package sim

import (
	"math/bits"
	"time"

	"repro/internal/core"
	"repro/internal/ocube"
)

// eventKind tags the heap entry variants.
type eventKind uint8

const (
	// evDeliver hands an envelope to its destination; ref indexes the
	// envelope arena.
	evDeliver eventKind = iota
	// evTimer fires a node timer; ref is the timer slot key encoding
	// (node, kind), and the armed generation lives in slotGen[ref].
	evTimer
	// evRequest executes a scheduled wish — Network.RequestCS, or
	// RequestInstanceCS on a keyed network — with no payload arena: the
	// wishing node rides in the entry's spare bytes (pos) and the instance
	// in ref, core.NoInstance for an untagged wish.
	evRequest
	// evFail crashes node ref.
	evFail
	// evRecover restarts node ref.
	evRecover
	// evRelease ends node ref's simulated critical section.
	evRelease
	// evSessFrame lands one physical session frame at its destination;
	// ref indexes the frame arena (Config.Session only).
	evSessFrame
)

// heapEntry is one scheduled occurrence. seq breaks ties FIFO so
// same-instant events run in schedule order, which keeps runs
// deterministic. Entries are deliberately three words: heap sifts copy
// them wholesale. pos fills the bytes after kind that alignment would
// pad anyway: 24 bits hold any position of a network of at most 2^20
// nodes (newNetwork's bound).
type heapEntry struct {
	at   time.Duration
	seq  uint64
	ref  int32
	kind eventKind
	pos  [3]byte // evRequest: the wishing node, little-endian
}

// node returns the position an evRequest entry carries.
func (ent *heapEntry) node() ocube.Pos {
	return ocube.Pos(ent.pos[0]) | ocube.Pos(ent.pos[1])<<8 | ocube.Pos(ent.pos[2])<<16
}

// entryLess orders entries by (at, seq).
func entryLess(a, b *heapEntry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// handler dispatches typed events; *Network implements it.
type handler interface{ handle(ent heapEntry) }

// Engine is a virtual-time event loop; Network binds its typed dispatch
// and timer slots.
type Engine struct {
	now   time.Duration
	next  uint64
	steps uint64      // events dispatched so far (see Steps)
	ev    []heapEntry // 4-ary min-heap by (at, seq)
	lane  lane        // FIFO by (at, seq) of non-timer entries that arrived in order

	// slots maps timer keys to their heap index (-1 when absent) and
	// slotGen to the generation the key was last armed with; sized by
	// bind to nodes × timer kinds. At most one entry per key exists.
	slots   []int32
	slotGen []uint64
	h       handler

	// Payload arenas; entry ref indexes them.
	envs   arena[core.Envelope]
	frames arena[sessArrival]
}

// arenaBase is the size of a payload arena's first block; block k holds
// arenaBase<<k slots.
const arenaBase = 16

// arena stores event payloads out of line, recycling slots through a
// free list. It grows by doubling blocks, so growing never copies a
// payload already stored — a schedule of a hundred thousand requests
// pushed before the run starts costs a dozen blocks and no growslice —
// and a network of a few nodes pays for a few slots.
type arena[T any] struct {
	blocks [][]T
	n      int32 // slots ever handed out
	free   []int32
}

// slot locates ref: block k covers refs arenaBase·(2^k−1) up to
// arenaBase·(2^(k+1)−1).
func (a *arena[T]) slot(ref int32) (k int, off uint32) {
	k = bits.Len32(uint32(ref)/arenaBase+1) - 1
	return k, uint32(ref) - (1<<k-1)*arenaBase
}

// put stores v and returns its ref.
func (a *arena[T]) put(v T) int32 {
	ref := a.n
	if n := len(a.free); n > 0 {
		ref = a.free[n-1]
		a.free = a.free[:n-1]
	} else {
		a.n++
	}
	k, off := a.slot(ref)
	if k == len(a.blocks) {
		a.blocks = append(a.blocks, make([]T, arenaBase<<k))
	}
	a.blocks[k][off] = v
	return ref
}

// take claims the payload at ref and recycles its slot, which is zeroed
// so a stored pointer does not outlive its event.
func (a *arena[T]) take(ref int32) T {
	k, off := a.slot(ref)
	v := a.blocks[k][off]
	var zero T
	a.blocks[k][off] = zero
	a.free = append(a.free, ref)
	return v
}

// bind installs the typed-event dispatcher and allocates the timer slot
// table.
func (e *Engine) bind(h handler, timerSlots int) {
	e.h = h
	e.slots = make([]int32, timerSlots)
	for i := range e.slots {
		e.slots[i] = -1
	}
	e.slotGen = make([]uint64, timerSlots)
}

// Now returns the current virtual time.
func (e *Engine) Now() time.Duration { return e.now }

// Pending returns the number of scheduled events (heap and arrivals
// lane).
func (e *Engine) Pending() int { return len(e.ev) + e.lane.n }

// scheduleEnv schedules the delivery of env after d.
func (e *Engine) scheduleEnv(d time.Duration, env core.Envelope) {
	e.schedule(d, evDeliver, e.envs.put(env))
}

// scheduleWish schedules node x's wish for instance inst (core.NoInstance:
// untagged) after d; the caller has checked that both fit the entry.
func (e *Engine) scheduleWish(d time.Duration, x ocube.Pos, inst int32) {
	e.enqueue(d, heapEntry{kind: evRequest, ref: inst, pos: [3]byte{byte(x), byte(x >> 8), byte(x >> 16)}})
}

// schedule stamps a new entry of kind for ref and queues it.
func (e *Engine) schedule(d time.Duration, kind eventKind, ref int32) {
	e.enqueue(d, heapEntry{kind: kind, ref: ref})
}

// enqueue stamps ent's instant and seq and queues it: an entry at or
// after the lane's tail appends to the lane, and only one that would
// break the lane's order pays for a heap push.
func (e *Engine) enqueue(d time.Duration, ent heapEntry) {
	if d < 0 {
		d = 0
	}
	e.next++
	ent.at, ent.seq = e.now+d, e.next
	if e.lane.n == 0 || ent.at >= e.lane.tailAt {
		e.lane.push(ent)
		return
	}
	e.ev = append(e.ev, ent)
	e.siftUp(len(e.ev) - 1)
}

// scheduleTimer schedules (or in-place reschedules) the timer entry for
// slot key. At most one heap entry exists per key: arming a timer whose
// previous fire is still scheduled overwrites the dead entry — its
// generation was superseded — and restores heap order from its position.
func (e *Engine) scheduleTimer(key int32, gen uint64, d time.Duration) {
	if d < 0 {
		d = 0
	}
	e.next++
	e.slotGen[key] = gen
	ent := heapEntry{at: e.now + d, seq: e.next, kind: evTimer, ref: key}
	if i := e.slots[key]; i >= 0 {
		dead := e.ev[i]
		e.ev[i] = ent
		if entryLess(&ent, &dead) {
			e.siftUp(int(i))
		} else {
			e.siftDown(int(i))
		}
		return
	}
	e.ev = append(e.ev, ent)
	e.siftUp(len(e.ev) - 1)
}

// place stores ent at heap index i and maintains its slot entry.
func (e *Engine) place(i int, ent heapEntry) {
	e.ev[i] = ent
	if ent.kind == evTimer {
		e.slots[ent.ref] = int32(i)
	}
}

func (e *Engine) siftUp(i int) {
	ent := e.ev[i]
	for i > 0 {
		parent := (i - 1) >> 2
		if !entryLess(&ent, &e.ev[parent]) {
			break
		}
		e.place(i, e.ev[parent])
		i = parent
	}
	e.place(i, ent)
}

func (e *Engine) siftDown(i int) {
	ent := e.ev[i]
	n := len(e.ev)
	for {
		first := i<<2 + 1
		if first >= n {
			break
		}
		min := first
		last := first + 4
		if last > n {
			last = n
		}
		for j := first + 1; j < last; j++ {
			if entryLess(&e.ev[j], &e.ev[min]) {
				min = j
			}
		}
		if !entryLess(&e.ev[min], &ent) {
			break
		}
		e.place(i, e.ev[min])
		i = min
	}
	e.place(i, ent)
}

// pop removes and returns the heap's earliest entry.
func (e *Engine) pop() heapEntry {
	ent := e.ev[0]
	if ent.kind == evTimer {
		e.slots[ent.ref] = -1
	}
	last := len(e.ev) - 1
	moved := e.ev[last]
	e.ev = e.ev[:last]
	if last > 0 {
		e.place(0, moved)
		e.siftDown(0)
	}
	return ent
}

// front returns the earliest queued entry — the lane's head or the
// heap's top, whichever (at, seq) puts first — and whether it is the
// lane's; nil when both are empty.
func (e *Engine) front() (ent *heapEntry, inLane bool) {
	switch {
	case e.lane.n == 0 && len(e.ev) == 0:
		return nil, false
	case e.lane.n == 0:
		return &e.ev[0], false
	case len(e.ev) == 0 || entryLess(e.lane.head(), &e.ev[0]):
		return e.lane.head(), true
	}
	return &e.ev[0], false
}

// popFront removes and returns the entry front reported.
func (e *Engine) popFront(inLane bool) heapEntry {
	if inLane {
		return e.lane.pop()
	}
	return e.pop()
}

// Step runs the next event; it reports false when none remain.
func (e *Engine) Step() bool {
	f, inLane := e.front()
	if f == nil {
		return false
	}
	ent := e.popFront(inLane)
	e.now = ent.at
	e.dispatch(ent)
	return true
}

// Steps reports how many events the engine has dispatched — the
// engine-level work figure behind events-per-second readings (protocol
// messages undercount: timers and local requests are engine work too).
func (e *Engine) Steps() uint64 { return e.steps }

// dispatch executes one event.
func (e *Engine) dispatch(ent heapEntry) {
	e.steps++
	e.h.handle(ent)
}

// RunUntil executes events with timestamps ≤ deadline and advances the
// clock to the deadline.
func (e *Engine) RunUntil(deadline time.Duration) {
	e.RunWhile(always, deadline)
	if e.now < deadline {
		e.now = deadline
	}
}

func always() bool { return true }

// RunWhile steps until cond returns false before some event, the queues
// drain, or the next event is due after maxTime. It returns true if it
// stopped because cond became false.
func (e *Engine) RunWhile(cond func() bool, maxTime time.Duration) bool {
	for cond() {
		if f, _ := e.front(); f == nil || f.at > maxTime {
			return false
		}
		e.Step()
	}
	return true
}

// timerKeys derive the slot key for a node timer and back.
func timerKey(x ocube.Pos, kind core.TimerKind) int32 {
	return int32(int(x)*core.NumTimerKinds + int(kind) - 1)
}

func timerFromKey(key int32) (ocube.Pos, core.TimerKind) {
	return ocube.Pos(int(key) / core.NumTimerKinds), core.TimerKind(int(key)%core.NumTimerKinds + 1)
}
