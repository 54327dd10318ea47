package core

import (
	"fmt"

	"repro/internal/ocube"
)

// This file implements the allocation-free bookkeeping pools behind the
// node state machine: the free-listed intrusive waiting queue that
// replaces the former append/slice request queue, and the open-addressed
// per-source tracking table that replaces the former seen/granted maps.
// Both recycle their storage in place — after warm-up a node processes
// requests without touching the heap — following the same
// valid-until-next-call discipline as the effect scratch arenas
// (emitter.go). CheckPools exposes the structural invariants to tests.

// queued is a deferred work item: either a local wish to enter the
// critical section or a received request message, waiting for the node to
// stop asking (the paper's per-node waiting queue with FIFO service).
// Items live in a waitQueue arena and link intrusively through next.
type queued struct {
	msg   Message
	next  int32 // arena index of the successor (live) or next free slot
	local bool
	live  bool // slot holds a queued item (false: on the free list)
}

// waitQueue is a free-listed intrusive FIFO. Live items form a singly
// linked list from head to tail through queued.next; recycled slots form
// a second list from free. Slots are scrubbed when popped, so a recycled
// slot can never alias a previously returned item.
type waitQueue struct {
	arena      []queued
	head, tail int32 // live list bounds, -1 when empty
	free       int32 // free-list head, -1 when exhausted
	n          int
}

// reset empties the queue and the free list, keeping the arena capacity.
func (q *waitQueue) reset() {
	q.arena = q.arena[:0]
	q.head, q.tail, q.free = -1, -1, -1
	q.n = 0
}

// push appends an item at the tail, recycling a free slot when one
// exists.
func (q *waitQueue) push(it queued) {
	var idx int32
	if q.free >= 0 {
		idx = q.free
		q.free = q.arena[idx].next
	} else {
		q.arena = append(q.arena, queued{})
		idx = int32(len(q.arena) - 1)
	}
	e := &q.arena[idx]
	*e = it
	e.next = -1
	e.live = true
	if q.tail >= 0 {
		q.arena[q.tail].next = idx
	} else {
		q.head = idx
	}
	q.tail = idx
	q.n++
}

// pop removes and returns the head item; its slot is scrubbed and pushed
// on the free list. The queue must be non-empty.
func (q *waitQueue) pop() queued {
	idx := q.head
	e := &q.arena[idx]
	it := *e
	q.head = e.next
	if q.head < 0 {
		q.tail = -1
	}
	*e = queued{next: q.free} // scrub: no aliasing after recycle
	q.free = idx
	q.n--
	it.next = -1
	return it
}

// check validates the pool invariants: the live and free lists are
// acyclic, disjoint, and together account for every arena slot exactly
// once, with the live flag and counters consistent.
func (q *waitQueue) check() error {
	visited := make([]bool, len(q.arena))
	live := 0
	last := int32(-1)
	for i := q.head; i >= 0; i = q.arena[i].next {
		if int(i) >= len(q.arena) {
			return fmt.Errorf("live list index %d out of arena bounds %d", i, len(q.arena))
		}
		if visited[i] {
			return fmt.Errorf("slot %d visited twice on the live list", i)
		}
		visited[i] = true
		if !q.arena[i].live {
			return fmt.Errorf("slot %d on the live list is not marked live", i)
		}
		live++
		last = i
	}
	if live != q.n {
		return fmt.Errorf("live list has %d items, counter says %d", live, q.n)
	}
	if last != q.tail {
		return fmt.Errorf("live list ends at %d, tail says %d", last, q.tail)
	}
	freeN := 0
	for i := q.free; i >= 0; i = q.arena[i].next {
		if int(i) >= len(q.arena) {
			return fmt.Errorf("free list index %d out of arena bounds %d", i, len(q.arena))
		}
		if visited[i] {
			return fmt.Errorf("slot %d on both the live and free lists", i)
		}
		visited[i] = true
		if q.arena[i].live {
			return fmt.Errorf("slot %d on the free list is marked live", i)
		}
		freeN++
	}
	if live+freeN != len(q.arena) {
		return fmt.Errorf("lists cover %d of %d arena slots", live+freeN, len(q.arena))
	}
	return nil
}

// reqTrack is the pooled per-source request bookkeeping formerly spread
// over the seen and granted maps: the highest sequence observed from a
// source (duplicate discard) and the sequence of its last completed
// grant (recovery-duplicate discard).
type reqTrack struct {
	src      ocube.Pos
	seenSeq  uint64
	grantSeq uint64
	hasSeen  bool
	hasGrant bool
}

// trackTable is a small open-addressed hash table over reqTrack entries,
// keyed by source position with linear probing. Entries are never
// removed (grants are cleared by flag), so no tombstones are needed; the
// table only allocates when it grows past its ¾ load factor.
type trackTable struct {
	slots []reqTrack // power-of-two length; src == ocube.None marks empty
	n     int
}

// hashPos scatters a position over the table (Knuth multiplicative).
func hashPos(src ocube.Pos) uint32 { return uint32(src) * 2654435761 }

// lookup returns the entry for src, or nil if absent. The pointer is
// valid until the next ensure (growth may move entries).
func (t *trackTable) lookup(src ocube.Pos) *reqTrack {
	if t.n == 0 {
		return nil
	}
	mask := uint32(len(t.slots) - 1)
	for i := hashPos(src) & mask; ; i = (i + 1) & mask {
		e := &t.slots[i]
		if e.src == src {
			return e
		}
		if e.src == ocube.None {
			return nil
		}
	}
}

// ensure returns the entry for src, inserting an empty one if absent.
func (t *trackTable) ensure(src ocube.Pos) *reqTrack {
	if t.slots == nil {
		t.grow(8)
	} else if 4*(t.n+1) > 3*len(t.slots) {
		t.grow(2 * len(t.slots))
	}
	mask := uint32(len(t.slots) - 1)
	for i := hashPos(src) & mask; ; i = (i + 1) & mask {
		e := &t.slots[i]
		if e.src == src {
			return e
		}
		if e.src == ocube.None {
			*e = reqTrack{src: src}
			t.n++
			return e
		}
	}
}

// grow rehashes into a table of the given power-of-two size.
func (t *trackTable) grow(size int) {
	old := t.slots
	t.slots = make([]reqTrack, size)
	for i := range t.slots {
		t.slots[i].src = ocube.None
	}
	t.n = 0
	for i := range old {
		if old[i].src != ocube.None {
			*t.ensure(old[i].src) = old[i]
		}
	}
}

// reset forgets every entry, keeping the table capacity.
func (t *trackTable) reset() {
	for i := range t.slots {
		t.slots[i] = reqTrack{src: ocube.None}
	}
	t.n = 0
}

// check validates the table invariants: the occupancy counter matches
// the slots, every entry is findable by probing from its hash, and the
// load factor bound holds.
func (t *trackTable) check() error {
	occupied := 0
	for i := range t.slots {
		if t.slots[i].src == ocube.None {
			continue
		}
		occupied++
		if got := t.lookup(t.slots[i].src); got != &t.slots[i] {
			return fmt.Errorf("entry for %v at slot %d is not reachable by probing", t.slots[i].src, i)
		}
	}
	if occupied != t.n {
		return fmt.Errorf("table holds %d entries, counter says %d", occupied, t.n)
	}
	if len(t.slots) > 0 && 4*t.n > 3*len(t.slots) {
		return fmt.Errorf("load factor exceeded: %d of %d", t.n, len(t.slots))
	}
	return nil
}

// CheckPools validates the node's internal pool invariants — the waiting
// queue's free list partitions its arena with no slot aliasing, the
// request-tracking table is consistent, and the host's Emitter arenas
// account for exactly the effects handed out by the last call. It is a testing
// hook: the simulator's pool tests call it on every node at quiescence.
func (n *Node) CheckPools() error {
	if err := n.q.check(); err != nil {
		return fmt.Errorf("core: node %v wait queue: %w", n.h.cfg.Self, err)
	}
	if err := n.track.check(); err != nil {
		return fmt.Errorf("core: node %v track table: %w", n.h.cfg.Self, err)
	}
	if err := n.h.em.check(); err != nil {
		return fmt.Errorf("core: node %v emitter: %w", n.h.cfg.Self, err)
	}
	return nil
}
