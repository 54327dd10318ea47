package metrics

// Holds is the one mutual-exclusion accountant. It keeps, per dense lock
// id, the fences of the holds live now, and judges every critical-section
// entry against them: an entry while a hold of its id is live is an
// overlap — visible when a live hold carries an equal fence (always 0,
// unfenced, for the baselines), fenced out when every live fence differs,
// because a FenceGate then rejects the stale side. sim.Network (one id),
// lockspace.Space (one per instance) and props.LockProps (one per key)
// all count through it, so the simulated tables, the bench's correctness
// check and the chaos verdicts are judged by the same rule.
//
// The zero value is ready to use. It is not safe for concurrent use.
type Holds struct {
	ids []holdSlot
	// more holds the live holds of an id beyond its slot's one: empty
	// unless two holds of one id overlap, so the common case is flat.
	more []extraHold

	grants, overlaps, fenced, visible int64
}

// holdSlot is one id's number of live holds and the fence of one of them.
type holdSlot struct {
	fence uint64
	n     int32
}

type extraHold struct {
	id    int
	fence uint64
}

// Enter accounts a critical-section entry of id under fence. overlap is
// true when any hold of id was live; visible when one of them carries
// an equal fence.
func (h *Holds) Enter(id int, fence uint64) (overlap, visible bool) {
	h.grants++
	if id >= len(h.ids) {
		h.ids = append(h.ids, make([]holdSlot, id+1-len(h.ids))...)
	}
	s := &h.ids[id]
	if s.n++; s.n == 1 {
		s.fence = fence
		return false, false
	}
	visible = s.fence == fence
	for _, e := range h.more {
		visible = visible || e.id == id && e.fence == fence
	}
	h.more = append(h.more, extraHold{id, fence})
	h.overlaps++
	if visible {
		h.visible++
	} else {
		h.fenced++
	}
	return true, visible
}

// Exit ends one live hold of id under fence. Exiting a fence that holds
// nothing is a no-op.
func (h *Holds) Exit(id int, fence uint64) {
	if id >= len(h.ids) || h.ids[id].n == 0 {
		return
	}
	s := &h.ids[id]
	for i, e := range h.more {
		if e.id != id || s.fence != fence && e.fence != fence {
			continue
		}
		if s.fence == fence {
			s.fence = e.fence // the slot's hold ends: e's takes its place
		}
		h.more[i] = h.more[len(h.more)-1]
		h.more = h.more[:len(h.more)-1]
		s.n--
		return
	}
	if s.fence == fence {
		s.n--
	}
}

// Grants returns the critical-section entries so far.
func (h *Holds) Grants() int64 { return h.grants }

// Overlaps returns the entries that overlapped a live hold of their id.
func (h *Holds) Overlaps() int64 { return h.overlaps }

// Fenced returns the overlaps a fence check tells apart.
func (h *Holds) Fenced() int64 { return h.fenced }

// Visible returns the overlaps under a fence a live hold already carried.
func (h *Holds) Visible() int64 { return h.visible }
