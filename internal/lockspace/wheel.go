package lockspace

import (
	"time"

	"repro/internal/core"
)

// Protocol timers use the core.TimerKind values 1..3; kind 0 is free for
// the one deadline the keyed node schedules for itself.
const (
	// wheelHold is the end of a hold: the live node's lease, the
	// simulated critical section's scheduled release.
	wheelHold core.TimerKind = 0
	// wheelKinds is the width of one machine's row in the slot table.
	wheelKinds = core.NumTimerKinds + 1
)

// wheelEntry is one pending instance deadline.
type wheelEntry struct {
	at   time.Duration
	seq  uint64 // FIFO tie-break, so equal deadlines fire in schedule order
	inst uint64 // envelope-tagged instance id (1-based)
	gen  uint64 // arming generation of the instance's own timer (protocol kinds)
	ref  int32  // the machine's row in the slot table (mint's return)
	kind core.TimerKind
}

// timerWheel multiplexes the timers of every instance hosted at one
// position onto a single timer: the simulator's per-(node, kind) slot
// table cannot grow with thousands of instances, so the keyed node
// (machine.go) keeps this private deadline heap and its driver arms one
// timer for the earliest entry — the position's one engine timer slot in
// the keyed sim.Network, the one time.Timer of the live node, at measured
// from the node's start.
// Re-arming a (machine, kind) pair reschedules its entry in place, and the
// node reaps what a state machine cancels, so the heap holds live
// deadlines only. Everything is deterministic: binary-heap order on (at,
// seq), and a slot table addressed in the state machines' minting order.
type timerWheel struct {
	ents []wheelEntry
	// slot[ref*wheelKinds+kind] is one more than the heap index of the
	// entry machine ref holds under kind; zero means it holds none.
	slot []int32
	seq  uint64
}

// mint adds the slot row of a newly instantiated machine and returns its
// ref.
func (w *timerWheel) mint() int32 {
	ref := int32(len(w.slot) / wheelKinds)
	w.slot = append(w.slot, make([]int32, wheelKinds)...)
	return ref
}

func slotOf(ref int32, kind core.TimerKind) int { return int(ref)*wheelKinds + int(kind) }

// schedule arms (or in-place reschedules) the entry of machine ref —
// instance inst — under kind.
func (w *timerWheel) schedule(ref int32, inst uint64, kind core.TimerKind, gen uint64, at time.Duration) {
	w.seq++
	ent := wheelEntry{at: at, seq: w.seq, inst: inst, gen: gen, ref: ref, kind: kind}
	if i := int(w.slot[slotOf(ref, kind)]) - 1; i >= 0 {
		w.replace(i, ent)
		return
	}
	w.ents = append(w.ents, ent)
	w.siftUp(len(w.ents) - 1)
}

// replace puts ent where the heap holds another entry and restores heap
// order.
func (w *timerWheel) replace(i int, ent wheelEntry) {
	old := w.ents[i]
	w.ents[i] = ent
	if w.less(&ent, &old) {
		w.siftUp(i)
	} else {
		w.siftDown(i)
	}
}

// pending reports whether machine ref has an entry under kind.
func (w *timerWheel) pending(ref int32, kind core.TimerKind) bool {
	return w.slot[slotOf(ref, kind)] != 0
}

// cancel removes machine ref's entry under kind, if it has one.
func (w *timerWheel) cancel(ref int32, kind core.TimerKind) {
	if i := int(w.slot[slotOf(ref, kind)]) - 1; i >= 0 {
		w.remove(i)
	}
}

// reap removes the protocol-timer entries of machine ref that node has
// cancelled or superseded since they were scheduled: they could only
// fire dead. The keyed node runs it after each call into the machine.
func (w *timerWheel) reap(ref int32, node *core.Node) {
	for kind := core.TimerKind(1); int(kind) < wheelKinds; kind++ {
		if i := int(w.slot[slotOf(ref, kind)]) - 1; i >= 0 && w.ents[i].gen != node.TimerGen(kind) {
			w.remove(i)
		}
	}
}

// earliest returns the next deadline.
func (w *timerWheel) earliest() (time.Duration, bool) {
	if len(w.ents) == 0 {
		return 0, false
	}
	return w.ents[0].at, true
}

// popDue removes and returns the earliest entry if it is due at now.
func (w *timerWheel) popDue(now time.Duration) (wheelEntry, bool) {
	if len(w.ents) == 0 || w.ents[0].at > now {
		return wheelEntry{}, false
	}
	ent := w.ents[0]
	w.remove(0)
	return ent, true
}

// remove takes the entry at heap index i out of the heap: the last entry
// takes its place.
func (w *timerWheel) remove(i int) {
	w.slot[slotOf(w.ents[i].ref, w.ents[i].kind)] = 0
	last := len(w.ents) - 1
	moved := w.ents[last]
	w.ents = w.ents[:last]
	if i < last {
		w.replace(i, moved)
	}
}

// clear drops every entry (node crash: all local deadlines are void),
// keeping capacity and every minted row.
func (w *timerWheel) clear() {
	for i := range w.ents {
		w.slot[slotOf(w.ents[i].ref, w.ents[i].kind)] = 0
	}
	w.ents = w.ents[:0]
}

func (w *timerWheel) less(a, b *wheelEntry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (w *timerWheel) place(i int, ent wheelEntry) {
	w.ents[i] = ent
	w.slot[slotOf(ent.ref, ent.kind)] = int32(i + 1)
}

func (w *timerWheel) siftUp(i int) {
	ent := w.ents[i]
	for i > 0 {
		parent := (i - 1) >> 1
		if !w.less(&ent, &w.ents[parent]) {
			break
		}
		w.place(i, w.ents[parent])
		i = parent
	}
	w.place(i, ent)
}

func (w *timerWheel) siftDown(i int) {
	ent := w.ents[i]
	n := len(w.ents)
	for {
		left := i<<1 + 1
		if left >= n {
			break
		}
		min := left
		if right := left + 1; right < n && w.less(&w.ents[right], &w.ents[left]) {
			min = right
		}
		if !w.less(&w.ents[min], &ent) {
			break
		}
		w.place(i, w.ents[min])
		i = min
	}
	w.place(i, ent)
}
