package lockspace

import (
	"testing"
	"time"

	"repro/internal/core"
)

// TestWheelSameInstantPopOrder pins the determinism contract the
// multiplexer's replay depends on: entries sharing one deadline pop in
// schedule order (the seq tie-break), never in instance-id, heap-shape
// or map-iteration order.
func TestWheelSameInstantPopOrder(t *testing.T) {
	var w timerWheel
	at := 5 * time.Millisecond
	// Schedule instances deliberately out of id order, across kinds.
	order := []struct {
		inst uint64
		kind core.TimerKind
	}{
		{3, core.TimerSuspicion},
		{1, wheelRelease},
		{7, core.TimerSearchRound},
		{2, core.TimerSuspicion},
		{5, wheelRelease},
	}
	for i, o := range order {
		w.schedule(o.inst, o.kind, uint64(i), at)
	}
	// An earlier deadline scheduled last still pops first.
	w.schedule(9, core.TimerEnquiry, 99, at-time.Millisecond)

	ent, ok := w.popDue(at)
	if !ok || ent.inst != 9 {
		t.Fatalf("first pop = %+v ok=%v, want the earlier deadline (inst 9)", ent, ok)
	}
	for i, o := range order {
		ent, ok := w.popDue(at)
		if !ok {
			t.Fatalf("pop %d: wheel empty early", i)
		}
		if ent.inst != o.inst || ent.kind != o.kind {
			t.Errorf("pop %d = inst %d kind %v, want inst %d kind %v (schedule order)",
				i, ent.inst, ent.kind, o.inst, o.kind)
		}
	}
	if _, ok := w.popDue(at); ok {
		t.Error("wheel not empty after draining")
	}
}

// TestWheelSameInstantRescheduleKeepsOrder pins the in-place reschedule
// path: re-arming an (instance, kind) pair onto an already-populated
// instant takes a fresh seq, so it pops after the entries that were
// already there — schedule order again, not its old position.
func TestWheelSameInstantRescheduleKeepsOrder(t *testing.T) {
	var w timerWheel
	at := 3 * time.Millisecond
	w.schedule(1, core.TimerSuspicion, 1, at)
	w.schedule(2, core.TimerSuspicion, 1, at)
	// Instance 1 re-arms onto the same instant: its entry moves behind 2.
	w.schedule(1, core.TimerSuspicion, 2, at)

	first, _ := w.popDue(at)
	second, ok := w.popDue(at)
	if !ok || first.inst != 2 || second.inst != 1 || second.gen != 2 {
		t.Errorf("pops = %+v then %+v (ok=%v), want inst 2 then inst 1 at gen 2", first, second, ok)
	}
	// Not due yet: nothing pops before the deadline.
	w.schedule(4, wheelRelease, 0, at+time.Millisecond)
	if _, ok := w.popDue(at); ok {
		t.Error("popped an entry before its deadline")
	}
	if next, ok := w.earliest(); !ok || next != at+time.Millisecond {
		t.Errorf("earliest = %v ok=%v, want %v", next, ok, at+time.Millisecond)
	}
}

// TestWheelKeepsHashedIdsApart pins the slot key on the whole 64-bit
// instance id. The live loop's ids are FNV hashes (KeyInstance), so two
// may differ only in their top bits; a key that packed (id, kind) into
// one word shifted those bits out, the second schedule rescheduled the
// first one's entry in place, and a timer was silently lost.
func TestWheelKeepsHashedIdsApart(t *testing.T) {
	const lo, hi = uint64(0x1234), uint64(0x1234) | 1<<63
	var w timerWheel
	w.schedule(lo, core.TimerSuspicion, 7, time.Millisecond)
	w.schedule(hi, core.TimerSuspicion, 9, 2*time.Millisecond)
	if len(w.ents) != 2 {
		t.Fatalf("%d entries after scheduling two instances, want 2", len(w.ents))
	}
	// Each instance still reschedules its own entry in place.
	w.schedule(lo, core.TimerSuspicion, 8, 3*time.Millisecond)
	if len(w.ents) != 2 {
		t.Fatalf("%d entries after a reschedule, want 2", len(w.ents))
	}
	first, ok1 := w.popDue(3 * time.Millisecond)
	second, ok2 := w.popDue(3 * time.Millisecond)
	if !ok1 || !ok2 || first.inst != hi || first.gen != 9 || second.inst != lo || second.gen != 8 {
		t.Errorf("pops = %+v (%v) then %+v (%v), want inst %#x gen 9 then inst %#x gen 8",
			first, ok1, second, ok2, hi, lo)
	}
	// The same id under two kinds is two entries too.
	w.schedule(hi, wheelLease, 0, time.Millisecond)
	w.schedule(hi, core.TimerTransferAck, 1, time.Millisecond)
	if len(w.ents) != 2 {
		t.Errorf("%d entries for one instance under two kinds, want 2", len(w.ents))
	}
	w.clear()
	if _, ok := w.earliest(); ok {
		t.Error("wheel not empty after clear")
	}
	w.schedule(hi, wheelLease, 0, time.Millisecond)
	if len(w.ents) != 1 {
		t.Errorf("%d entries after clear and one schedule, want 1", len(w.ents))
	}
}
