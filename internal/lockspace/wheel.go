package lockspace

import (
	"time"

	"repro/internal/core"
)

// Protocol timers use the core.TimerKind values 1..5; kind 0 is free for
// the one deadline a driver schedules for itself.
const (
	// wheelRelease is the simulated driver's scheduled critical-section
	// release.
	wheelRelease core.TimerKind = 0
	// wheelLease is the live loop's lease-expiry check.
	wheelLease core.TimerKind = 0
)

// wheelEntry is one pending instance deadline.
type wheelEntry struct {
	at   time.Duration
	seq  uint64 // FIFO tie-break, so equal deadlines fire in schedule order
	inst uint64 // envelope-tagged instance id (1-based)
	kind core.TimerKind
	gen  uint64 // arming generation of the instance's own timer (protocol kinds)
}

// timerWheel multiplexes the timers of every instance hosted at one
// position onto a single timer: the simulator's per-(node, kind) slot
// table cannot grow with thousands of instances, so the mux peer keeps
// this private deadline heap and arms one engine timer for the earliest
// entry; the live node loop (lockspace.go) keeps one too, under its one
// time.Timer, with at measured from the loop's start. Like the engine's
// own slot table, re-arming an (instance, kind) pair reschedules its
// existing entry in place — FT runs re-arm suspicion timers on nearly
// every message, and corpses would otherwise dominate the heap.
// Everything is deterministic: binary-heap order on (at, seq), no map
// iteration (the slot maps are only ever indexed, never ranged over).
type timerWheel struct {
	ents []wheelEntry
	// slot[kind] maps an instance id to its entry's heap index. One map
	// per kind keys each on the whole 64-bit id: the live path's ids are
	// FNV hashes (KeyInstance), and no packing of (id, kind) into one
	// word keeps two ids that differ only in their top bits apart.
	slot [core.NumTimerKinds + 1]map[uint64]int
	seq  uint64
}

// schedule arms (or in-place reschedules) the entry for (inst, kind).
func (w *timerWheel) schedule(inst uint64, kind core.TimerKind, gen uint64, at time.Duration) {
	if w.slot[kind] == nil {
		w.slot[kind] = make(map[uint64]int)
	}
	w.seq++
	ent := wheelEntry{at: at, seq: w.seq, inst: inst, kind: kind, gen: gen}
	if i, ok := w.slot[kind][inst]; ok {
		old := w.ents[i]
		w.ents[i] = ent
		if ent.at < old.at || (ent.at == old.at && ent.seq < old.seq) {
			w.siftUp(i)
		} else {
			w.siftDown(i)
		}
		return
	}
	w.ents = append(w.ents, ent)
	w.slot[kind][inst] = len(w.ents) - 1
	w.siftUp(len(w.ents) - 1)
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
	delete(w.slot[ent.kind], ent.inst)
	last := len(w.ents) - 1
	moved := w.ents[last]
	w.ents = w.ents[:last]
	if last > 0 {
		w.ents[0] = moved
		w.siftDown(0)
	}
	return ent, true
}

// clear drops every entry (node crash: all local deadlines are void),
// keeping capacity.
func (w *timerWheel) clear() {
	w.ents = w.ents[:0]
	for _, m := range w.slot {
		clear(m)
	}
}

func (w *timerWheel) less(a, b *wheelEntry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (w *timerWheel) place(i int, ent wheelEntry) {
	w.ents[i] = ent
	w.slot[ent.kind][ent.inst] = i
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
