package core

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/ocube"
)

// This file holds the node's two pieces of per-node bookkeeping as plain
// ordered data: the paper's waiting queue (§3.1), a FIFO ring, and the
// per-source sequence record behind duplicate discard (§5), a slice
// sorted by source. Both keep their storage across reset, so after
// warm-up a node processes requests without touching the heap.
// CheckPools exposes their invariants to tests.

// queued is a deferred work item: either a local wish to enter the
// critical section or a received request message, waiting for the node to
// stop asking (the paper's per-node waiting queue with FIFO service).
// It holds no pointers, so a popped ring slot needs no scrub.
type queued struct {
	msg   Message
	local bool
}

// waitQueue is a FIFO ring: the n items in order are ring[head],
// ring[head+1], … wrapping at len(ring). A push into a full ring doubles
// it, unwrapping the items to the front of the new one.
type waitQueue struct {
	ring    []queued
	head, n int
}

// reset empties the queue, keeping the ring's capacity.
func (q *waitQueue) reset() { q.head, q.n = 0, 0 }

// at returns the ring slot i places after the head, 0 ≤ i < len(ring).
func (q *waitQueue) at(i int) *queued {
	i += q.head
	if i >= len(q.ring) {
		i -= len(q.ring)
	}
	return &q.ring[i]
}

// push appends an item at the tail.
func (q *waitQueue) push(it queued) {
	if q.n == len(q.ring) {
		ring := make([]queued, max(2*len(q.ring), 1))
		copy(ring[copy(ring, q.ring[q.head:]):], q.ring[:q.head])
		q.ring, q.head = ring, 0
	}
	*q.at(q.n) = it
	q.n++
}

// pop removes and returns the head item. The queue must be non-empty.
func (q *waitQueue) pop() queued {
	it := q.ring[q.head]
	q.head++
	if q.head == len(q.ring) {
		q.head = 0
	}
	q.n--
	return it
}

// check validates that the ring's bounds fit its storage.
func (q *waitQueue) check() error {
	if q.n < 0 || q.n > len(q.ring) || q.head < 0 || q.head >= max(len(q.ring), 1) {
		return fmt.Errorf("head %d and count %d do not fit a ring of %d", q.head, q.n, len(q.ring))
	}
	return nil
}

// reqTrack is the per-source request bookkeeping: the highest sequence
// observed from a source (duplicate discard) and the sequence of its last
// completed grant (recovery-duplicate discard).
type reqTrack struct {
	src      ocube.Pos
	seenSeq  uint64
	grantSeq uint64
	hasSeen  bool
	hasGrant bool
}

// trackTable holds one reqTrack per source, sorted ascending by src.
// Entries are never removed (grants are cleared by flag).
type trackTable []reqTrack

func bySrc(e reqTrack, src ocube.Pos) int { return cmp.Compare(e.src, src) }

// lookup returns the entry for src, or nil if absent. The pointer is
// valid until the next ensure (an insert may move entries).
func (t trackTable) lookup(src ocube.Pos) *reqTrack {
	if i, ok := slices.BinarySearchFunc(t, src, bySrc); ok {
		return &t[i]
	}
	return nil
}

// ensure returns the entry for src, inserting an empty one if absent.
// The first insert reserves room for eight sources.
func (t *trackTable) ensure(src ocube.Pos) *reqTrack {
	i, ok := slices.BinarySearchFunc(*t, src, bySrc)
	if !ok {
		if *t == nil {
			*t = make(trackTable, 0, 8)
		}
		*t = slices.Insert(*t, i, reqTrack{src: src})
	}
	return &(*t)[i]
}

// reset forgets every entry, keeping the table's capacity.
func (t *trackTable) reset() { *t = (*t)[:0] }

// check validates that the table is strictly ascending by source.
func (t trackTable) check() error {
	for i := 1; i < len(t); i++ {
		if t[i-1].src >= t[i].src {
			return fmt.Errorf("entry %d (source %v) does not follow entry %d (source %v)", i, t[i].src, i-1, t[i-1].src)
		}
	}
	return nil
}

// CheckPools validates the node's bookkeeping invariants — the waiting
// queue's ring bounds fit its storage, the request-tracking table is
// strictly ascending by source, and the host's Emitter arenas account
// for exactly the effects handed out by the last call. It is a testing
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
