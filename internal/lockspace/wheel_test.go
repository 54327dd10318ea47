package lockspace

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/core"
)

// keyedWheel drives a timerWheel the way both drivers do: one row minted
// per instance, on first touch.
type keyedWheel struct {
	timerWheel
	refs map[uint64]int32
}

func newKeyedWheel() *keyedWheel { return &keyedWheel{refs: map[uint64]int32{}} }

func (w *keyedWheel) ref(inst uint64) int32 {
	ref, ok := w.refs[inst]
	if !ok {
		ref = w.mint()
		w.refs[inst] = ref
	}
	return ref
}

func (w *keyedWheel) arm(inst uint64, kind core.TimerKind, gen uint64, at time.Duration) {
	w.schedule(w.ref(inst), inst, kind, gen, at)
}

// TestWheelSameInstantPopOrder pins the determinism contract the
// multiplexer's replay depends on: entries sharing one deadline pop in
// schedule order (the seq tie-break), never in instance-id, heap-shape
// or map-iteration order.
func TestWheelSameInstantPopOrder(t *testing.T) {
	w := newKeyedWheel()
	at := 5 * time.Millisecond
	// Schedule instances deliberately out of id order, across kinds.
	order := []struct {
		inst uint64
		kind core.TimerKind
	}{
		{3, core.TimerSuspicion},
		{1, wheelHold},
		{7, core.TimerTransferAck},
		{2, core.TimerSuspicion},
		{5, wheelHold},
	}
	for i, o := range order {
		w.arm(o.inst, o.kind, uint64(i), at)
	}
	// An earlier deadline scheduled last still pops first.
	w.arm(9, core.TimerTokenReturn, 99, at-time.Millisecond)

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
	w := newKeyedWheel()
	at := 3 * time.Millisecond
	w.arm(1, core.TimerSuspicion, 1, at)
	w.arm(2, core.TimerSuspicion, 1, at)
	// Instance 1 re-arms onto the same instant: its entry moves behind 2.
	w.arm(1, core.TimerSuspicion, 2, at)

	first, _ := w.popDue(at)
	second, ok := w.popDue(at)
	if !ok || first.inst != 2 || second.inst != 1 || second.gen != 2 {
		t.Errorf("pops = %+v then %+v (ok=%v), want inst 2 then inst 1 at gen 2", first, second, ok)
	}
	// Not due yet: nothing pops before the deadline.
	w.arm(4, wheelHold, 0, at+time.Millisecond)
	if _, ok := w.popDue(at); ok {
		t.Error("popped an entry before its deadline")
	}
	if next, ok := w.earliest(); !ok || next != at+time.Millisecond {
		t.Errorf("earliest = %v ok=%v, want %v", next, ok, at+time.Millisecond)
	}
}

// TestWheelKeepsHashedIdsApart pins that nothing about an instance id
// picks an entry's slot: the row is the machine's, minted with it. The
// live node's ids are FNV hashes (KeyInstance), so two may differ only in
// their top bits; a slot key that packed (id, kind) into one word shifted
// those bits out, the second schedule rescheduled the first one's entry
// in place, and a timer was silently lost.
func TestWheelKeepsHashedIdsApart(t *testing.T) {
	const lo, hi = uint64(0x1234), uint64(0x1234) | 1<<63
	w := newKeyedWheel()
	w.arm(lo, core.TimerSuspicion, 7, time.Millisecond)
	w.arm(hi, core.TimerSuspicion, 9, 2*time.Millisecond)
	if len(w.ents) != 2 {
		t.Fatalf("%d entries after scheduling two instances, want 2", len(w.ents))
	}
	// Each instance still reschedules its own entry in place.
	w.arm(lo, core.TimerSuspicion, 8, 3*time.Millisecond)
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
	w.arm(hi, wheelHold, 0, time.Millisecond)
	w.arm(hi, core.TimerTransferAck, 1, time.Millisecond)
	if len(w.ents) != 2 {
		t.Errorf("%d entries for one instance under two kinds, want 2", len(w.ents))
	}
	w.clear()
	if _, ok := w.earliest(); ok {
		t.Error("wheel not empty after clear")
	}
	w.arm(hi, wheelHold, 0, time.Millisecond)
	if len(w.ents) != 1 {
		t.Errorf("%d entries after clear and one schedule, want 1", len(w.ents))
	}
}

// TestWheelRemovalKeepsHeapAndSlots drives schedule, in-place
// reschedule, cancel and popDue at random against a plain model and
// checks after every operation what removal from the middle of the heap
// must keep: heap order, a slot table that points at exactly the entries
// present, and pops in (deadline, schedule-order) sequence.
func TestWheelRemovalKeepsHeapAndSlots(t *testing.T) {
	type key struct {
		ref  int32
		kind core.TimerKind
	}
	rng := rand.New(rand.NewSource(18))
	var w timerWheel
	const machines = 24
	for i := 0; i < machines; i++ {
		w.mint()
	}
	model := map[key]wheelEntry{}
	check := func(op string) {
		t.Helper()
		if len(w.ents) != len(model) {
			t.Fatalf("after %s: %d entries, model has %d", op, len(w.ents), len(model))
		}
		for i := range w.ents {
			e := w.ents[i]
			if i > 0 && w.less(&e, &w.ents[(i-1)>>1]) {
				t.Fatalf("after %s: entry %d sorts before its parent", op, i)
			}
			if got := int(w.slot[slotOf(e.ref, e.kind)]) - 1; got != i {
				t.Fatalf("after %s: slot of (%d, %v) says %d, entry is at %d", op, e.ref, e.kind, got, i)
			}
			if model[key{e.ref, e.kind}] != e {
				t.Fatalf("after %s: entry %+v differs from the model's %+v", op, e, model[key{e.ref, e.kind}])
			}
		}
		live := 0
		for _, s := range w.slot {
			if s != 0 {
				live++
			}
		}
		if live != len(model) {
			t.Fatalf("after %s: %d slots set for %d entries", op, live, len(model))
		}
	}
	now := time.Duration(0)
	for step := 0; step < 20000; step++ {
		k := key{int32(rng.Intn(machines)), core.TimerKind(rng.Intn(wheelKinds))}
		switch rng.Intn(4) {
		case 0, 1:
			at := now + time.Duration(rng.Intn(50))
			w.schedule(k.ref, uint64(k.ref)+1, k.kind, uint64(step), at)
			model[k] = wheelEntry{at: at, seq: w.seq, inst: uint64(k.ref) + 1, gen: uint64(step), ref: k.ref, kind: k.kind}
			check("schedule")
		case 2:
			if _, ok := model[k]; ok != w.pending(k.ref, k.kind) {
				t.Fatalf("pending(%d, %v) = %v, model says %v", k.ref, k.kind, !ok, ok)
			}
			w.cancel(k.ref, k.kind)
			delete(model, k)
			check("cancel")
		case 3:
			now += time.Duration(rng.Intn(8))
			var last wheelEntry
			for {
				ent, ok := w.popDue(now)
				if !ok {
					break
				}
				if ent.at > now || w.less(&ent, &last) {
					t.Fatalf("popped %+v at %v after %+v", ent, now, last)
				}
				last = ent
				delete(model, key{ent.ref, ent.kind})
			}
			for _, e := range model {
				if e.at <= now {
					t.Fatalf("entry %+v still pending at %v", e, now)
				}
			}
			check("popDue")
		}
	}
}

// TestWheelReapRemovesDeadGenerations: reap takes out exactly the
// protocol-timer entries whose generation the machine has moved past,
// and leaves the driver's own kind-0 deadline alone.
func TestWheelReapRemovesDeadGenerations(t *testing.T) {
	node, err := core.NewNode(core.Config{Self: 0, P: 1})
	if err != nil {
		t.Fatal(err)
	}
	var w timerWheel
	ref := w.mint()
	live := node.TimerGen(core.TimerSuspicion)
	w.schedule(ref, 1, core.TimerSuspicion, live, time.Second)
	w.schedule(ref, 1, core.TimerTokenReturn, node.TimerGen(core.TimerTokenReturn)+1, time.Millisecond)
	w.schedule(ref, 1, wheelHold, 99, 2*time.Second)
	w.reap(ref, node)
	if len(w.ents) != 2 || !w.pending(ref, core.TimerSuspicion) || !w.pending(ref, wheelHold) || w.pending(ref, core.TimerTokenReturn) {
		t.Fatalf("after reap: %d entries (suspicion %v, lease %v, token-return %v), want the live suspicion timer and the lease check",
			len(w.ents), w.pending(ref, core.TimerSuspicion), w.pending(ref, wheelHold), w.pending(ref, core.TimerTokenReturn))
	}
	if at, _ := w.earliest(); at != time.Second {
		t.Errorf("earliest = %v after reaping the 1ms corpse, want 1s", at)
	}
}
