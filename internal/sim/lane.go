package sim

import "time"

// Lane blocks double from laneMinChunk entries (24 bytes each) to
// laneMaxChunk: a network of eight nodes pays for a few dozen entries, a
// schedule of a hundred thousand arrivals for about a hundred blocks.
const (
	laneMinChunk = 32
	laneMaxChunk = 1024
)

// lane is the engine's arrivals lane: a FIFO of heap entries in
// nondecreasing (at, seq) order. Engine.schedule only pushes an entry
// whose at is not before tailAt, and seq grows with every entry stamped,
// so the order holds by construction and the head is always the lane's
// minimum. Storage is a queue of blocks: a push never copies what is
// already queued, and a block is dropped as soon as it is consumed (one
// is kept as a spare, so a lane that hovers around a block boundary does
// not allocate per crossing).
type lane struct {
	chunks  [][]heapEntry // consumed from chunks[0], filled at the last
	spare   []heapEntry
	headIdx int           // next entry of chunks[0] to pop
	n       int           // entries queued
	tailAt  time.Duration // at of the newest entry (meaningful while n > 0)
}

// push appends ent, whose at must not precede tailAt while n > 0.
func (l *lane) push(ent heapEntry) {
	last := len(l.chunks) - 1
	if last < 0 || len(l.chunks[last]) == cap(l.chunks[last]) {
		c := l.spare
		l.spare = nil
		if c == nil {
			size := laneMinChunk
			if last >= 0 {
				size = min(2*cap(l.chunks[last]), laneMaxChunk)
			}
			c = make([]heapEntry, 0, size)
		}
		l.chunks = append(l.chunks, c)
		last++
	}
	l.chunks[last] = append(l.chunks[last], ent)
	l.n++
	l.tailAt = ent.at
}

// head returns the earliest entry; the lane must be non-empty.
func (l *lane) head() *heapEntry { return &l.chunks[0][l.headIdx] }

// pop removes and returns the earliest entry; the lane must be non-empty.
func (l *lane) pop() heapEntry {
	c := l.chunks[0]
	ent := c[l.headIdx]
	l.headIdx++
	l.n--
	switch {
	case l.n == 0:
		// Empty, so this is the only block: rewind into it.
		l.chunks[0] = c[:0]
		l.headIdx = 0
	case l.headIdx == len(c):
		l.chunks[0] = nil
		l.chunks = l.chunks[1:]
		l.headIdx = 0
		l.spare = c[:0]
	}
	return ent
}
