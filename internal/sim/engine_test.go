package sim

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/ocube"
	"repro/internal/trace"
)

// evCallback is the event kind of a test callback: ref indexes the
// callbacks it was scheduled on. No engine kind takes its value.
const evCallback eventKind = 255

// callbacks wraps an engine's bound handler — nil for a bare engine —
// with the callback events after schedules; every other event goes on to
// the wrapped handler.
type callbacks struct {
	inner handler
	fns   []func()
}

func (c *callbacks) handle(ent heapEntry) {
	if ent.kind == evCallback {
		fn := c.fns[ent.ref]
		c.fns[ent.ref] = nil
		fn()
		return
	}
	c.inner.handle(ent)
}

// after schedules fn to run on e at Now()+d; a non-positive d runs it at
// the current instant, after already-scheduled same-instant events. It
// wraps e's handler on first use, so bind e before, not after.
func after(e *Engine, d time.Duration, fn func()) {
	c, ok := e.h.(*callbacks)
	if !ok {
		c = &callbacks{inner: e.h}
		e.h = c
	}
	c.fns = append(c.fns, fn)
	e.schedule(d, evCallback, int32(len(c.fns)-1))
}

// TestLayoutPins pins the heap entry at no more than three words
// (DESIGN.md §8): heap sifts copy entries wholesale, and the arrivals
// lane stores them. A failure names the field that crosses the pin.
func TestLayoutPins(t *testing.T) {
	const limit = 24
	typ := reflect.TypeOf(heapEntry{})
	size := typ.Size()
	if size <= limit {
		return
	}
	name := typ.Field(typ.NumField() - 1).Name // when only trailing padding crosses
	for i := 0; i < typ.NumField(); i++ {
		if f := typ.Field(i); f.Offset+f.Type.Size() > limit {
			name = f.Name
			break
		}
	}
	t.Errorf("sim.heapEntry is %d bytes, want at most %d; field %s pushes past the pin", size, limit, name)
}

func TestEngineOrdering(t *testing.T) {
	var e Engine
	var got []int
	after(&e, 3*time.Millisecond, func() { got = append(got, 3) })
	after(&e, time.Millisecond, func() { got = append(got, 1) })
	after(&e, 2*time.Millisecond, func() { got = append(got, 2) })
	// Same-instant events run in schedule order.
	after(&e, 2*time.Millisecond, func() { got = append(got, 4) })
	for e.Step() {
	}
	want := []int{1, 2, 4, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if e.Now() != 3*time.Millisecond {
		t.Errorf("now = %v", e.Now())
	}
}

func TestEngineNegativeDelayRunsNow(t *testing.T) {
	var e Engine
	ran := false
	after(&e, -time.Second, func() { ran = true })
	e.Step()
	if !ran || e.Now() != 0 {
		t.Errorf("ran=%v now=%v", ran, e.Now())
	}
}

func TestEngineRunUntilAdvancesClock(t *testing.T) {
	var e Engine
	count := 0
	after(&e, time.Millisecond, func() { count++ })
	after(&e, 10*time.Millisecond, func() { count++ })
	e.RunUntil(5 * time.Millisecond)
	if count != 1 {
		t.Errorf("count = %d, want 1", count)
	}
	if e.Now() != 5*time.Millisecond {
		t.Errorf("now = %v, want 5ms", e.Now())
	}
	if e.Pending() != 1 {
		t.Errorf("pending = %d", e.Pending())
	}
	e.RunWhile(always, time.Second)
	if count != 2 {
		t.Errorf("count = %d after drain", count)
	}
}

func TestEngineRunWhile(t *testing.T) {
	var e Engine
	n := 0
	for i := 0; i < 5; i++ {
		after(&e, time.Duration(i)*time.Millisecond, func() { n++ })
	}
	stopped := e.RunWhile(func() bool { return n < 3 }, time.Second)
	if !stopped || n != 3 {
		t.Errorf("stopped=%v n=%d", stopped, n)
	}
	// Condition never satisfied: heap drains, returns false.
	if e.RunWhile(func() bool { return true }, time.Second) {
		t.Error("RunWhile reported success with a never-false condition")
	}
}

// TestDeterministicReplay: two networks with identical seeds must produce
// byte-identical traces — the property the whole experiment harness
// relies on.
func TestDeterministicReplay(t *testing.T) {
	run := func() (string, int64) {
		rec := &trace.Recorder{}
		w, err := New(Config{
			P:        3,
			Seed:     99,
			Delay:    UniformDelay(time.Millisecond, 4*time.Millisecond),
			Recorder: rec,
			Node:     core.Config{FT: true, Delta: 4 * time.Millisecond, SuspicionSlack: 20 * time.Millisecond},
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 6; i++ {
			w.RequestCS(ocube.Pos(i), time.Duration(i)*time.Millisecond)
		}
		w.Fail(2, 5*time.Millisecond)
		w.Recover(2, 500*time.Millisecond)
		if !w.RunUntilQuiescent(time.Hour) {
			t.Fatal("no quiescence")
		}
		return rec.String(), w.Grants()
	}
	s1, g1 := run()
	s2, g2 := run()
	if s1 != s2 || g1 != g2 {
		t.Errorf("replays diverged:\n%s (%d grants)\n%s (%d grants)", s1, g1, s2, g2)
	}
}

// TestAblationA3NonFIFOChannels: the algorithm must be correct with and
// without FIFO channels (the paper assumes only reliability, not order).
func TestAblationA3NonFIFOChannels(t *testing.T) {
	for _, tc := range []struct {
		name  string
		delay DelayFn
	}{
		{"fifo", FixedDelay(time.Millisecond)},
		{"non-fifo", UniformDelay(time.Millisecond, 10*time.Millisecond)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rec := &trace.Recorder{}
			w, err := New(Config{P: 4, Seed: 5, Delay: tc.delay, Recorder: rec})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < w.N(); i++ {
				w.RequestCS(ocube.Pos(i), time.Duration(i%3)*time.Millisecond)
			}
			if !w.RunUntilQuiescent(time.Hour) {
				t.Fatal("no quiescence")
			}
			if w.Grants() != int64(w.N()) || w.Violations() != 0 {
				t.Errorf("grants=%d violations=%d", w.Grants(), w.Violations())
			}
			if err := w.Snapshot().Validate(); err != nil {
				t.Errorf("final tree: %v", err)
			}
		})
	}
}

// TestAblationA4DelaySensitivity: failure-repair correctness must hold
// across delay distributions as long as δ bounds them; overhead may vary.
func TestAblationA4DelaySensitivity(t *testing.T) {
	delta := 4 * time.Millisecond
	for _, tc := range []struct {
		name  string
		delay DelayFn
	}{
		{"constant", FixedDelay(delta)},
		{"uniform-half", UniformDelay(delta/2, delta)},
		{"uniform-wide", UniformDelay(delta/8, delta)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w, err := New(Config{
				P: 3, Seed: 77, Delay: tc.delay,
				Node: core.Config{FT: true, Delta: delta,
					CSEstimate: delta, SuspicionSlack: 30 * delta},
			})
			if err != nil {
				t.Fatal(err)
			}
			w.Fail(4, 0)
			w.RequestCS(5, delta) // son of the victim
			w.RequestCS(2, 2*delta)
			if !w.RunUntilQuiescent(time.Hour) {
				t.Fatal("no quiescence")
			}
			if w.Grants() != 2 || w.Violations() != 0 || w.LiveTokens() != 1 {
				t.Errorf("grants=%d violations=%d tokens=%d",
					w.Grants(), w.Violations(), w.LiveTokens())
			}
		})
	}
}

// timerFire is one recorded fake dispatch: the slot key decoded plus the
// generation the engine had armed for it at fire time.
type timerFire struct {
	at   time.Duration
	node ocube.Pos
	kind core.TimerKind
	gen  uint64
}

// fakeHandler records typed events delivered by the engine.
type fakeHandler struct {
	e     *Engine
	fired []timerFire
}

func (h *fakeHandler) handle(ent heapEntry) {
	if ent.kind != evTimer {
		return
	}
	node, kind := timerFromKey(ent.ref)
	h.fired = append(h.fired, timerFire{at: ent.at, node: node, kind: kind, gen: h.e.slotGen[ent.ref]})
}

// TestEngineTimerInPlaceReschedule: re-arming a timer must replace its
// existing heap entry instead of accumulating dead ones.
func TestEngineTimerInPlaceReschedule(t *testing.T) {
	var e Engine
	h := &fakeHandler{e: &e}
	e.bind(h, 2*core.NumTimerKinds)
	key := timerKey(1, core.TimerSuspicion)
	for gen := uint64(1); gen <= 50; gen++ {
		e.scheduleTimer(key, gen, time.Duration(100-gen)*time.Millisecond)
	}
	if e.Pending() != 1 {
		t.Fatalf("pending = %d after 50 re-arms of one timer, want 1", e.Pending())
	}
	for e.Step() {
	}
	if len(h.fired) != 1 || h.fired[0].gen != 50 {
		t.Fatalf("fired = %+v, want single fire of generation 50", h.fired)
	}
	if e.Now() != 50*time.Millisecond {
		t.Errorf("now = %v, want the latest re-arm's deadline 50ms", e.Now())
	}
}

// TestEngineTimerOrderingAcrossKeys: distinct timers and callback events
// interleave strictly by (time, schedule order), with rescheduling moving
// entries both directions through the heap.
func TestEngineTimerOrderingAcrossKeys(t *testing.T) {
	var e Engine
	h := &fakeHandler{e: &e}
	e.bind(h, 4*core.NumTimerKinds)
	var cbAt []time.Duration
	after(&e, 15*time.Millisecond, func() { cbAt = append(cbAt, e.Now()) })
	e.scheduleTimer(timerKey(0, core.TimerTokenReturn), 1, 30*time.Millisecond)
	e.scheduleTimer(timerKey(2, core.TimerSuspicion), 1, 10*time.Millisecond)
	// Move node 0's timer earlier and node 2's later.
	e.scheduleTimer(timerKey(0, core.TimerTokenReturn), 2, 5*time.Millisecond)
	e.scheduleTimer(timerKey(2, core.TimerSuspicion), 2, 20*time.Millisecond)
	for e.Step() {
	}
	if len(h.fired) != 2 || h.fired[0].node != 0 || h.fired[1].node != 2 {
		t.Fatalf("fired = %+v, want node 0 then node 2", h.fired)
	}
	if h.fired[0].kind != core.TimerTokenReturn || h.fired[1].kind != core.TimerSuspicion {
		t.Errorf("fired kinds = %v, %v", h.fired[0].kind, h.fired[1].kind)
	}
	if h.fired[0].at != 5*time.Millisecond || h.fired[1].at != 20*time.Millisecond {
		t.Errorf("fire times = %v, %v", h.fired[0].at, h.fired[1].at)
	}
	if len(cbAt) != 1 || cbAt[0] != 15*time.Millisecond {
		t.Errorf("callback times = %v, want [15ms]", cbAt)
	}
}

// TestHeapStaysBoundedUnderFT: the dead-timer elimination must keep the
// engine's queues — heap and arrivals lane together, which is what
// Pending counts — bounded by live work (one slot per node and
// timer kind plus in-flight traffic) even though fault-tolerant runs
// re-arm suspicion timers on nearly every message. The heap alone is
// held to the tighter bound the lane exists for: the scheduled requests
// were pushed in time order, so they wait in the lane and the heap holds
// timers and traffic only.
func TestHeapStaysBoundedUnderFT(t *testing.T) {
	w, err := New(Config{
		P:     4,
		Seed:  3,
		Delay: UniformDelay(time.Millisecond/2, time.Millisecond),
		Node: core.Config{FT: true, Delta: time.Millisecond,
			CSEstimate: time.Millisecond, SuspicionSlack: 24 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 8; round++ {
		for i := 0; i < w.N(); i++ {
			w.RequestCS(ocube.Pos(i), time.Duration(round*30+i)*time.Millisecond)
		}
	}
	slots := w.N() * core.NumTimerKinds
	for w.Busy() {
		if !w.Eng.Step() {
			break
		}
		// Exact occupancy invariant: every queued entry is a scheduled op,
		// an in-flight message, or one of the ≤ slots timer entries. Without
		// in-place rescheduling, dead suspicion timers blow through this.
		if bound := w.pendingOps + w.inflight + slots; w.Eng.Pending() > bound {
			t.Fatalf("engine holds %d events with %d ops + %d in flight (bound %d): dead timers accumulate",
				w.Eng.Pending(), w.pendingOps, w.inflight, bound)
		}
		// Releases are the only ops scheduled while the run is under way;
		// at most one per node is outstanding.
		if bound := w.N() + w.inflight + slots; len(w.Eng.ev) > bound {
			t.Fatalf("heap holds %d events with %d in flight (bound %d): scheduled requests are not waiting in the lane",
				len(w.Eng.ev), w.inflight, bound)
		}
	}
	if w.Violations() != 0 {
		t.Errorf("violations = %d", w.Violations())
	}
}

// TestEngineZeroDelayOrdering: a zero-delay cascade runs in exact (time,
// schedule) order after the already-scheduled same-instant events — the
// zero-delay case of TestEngineOrdering.
func TestEngineZeroDelayOrdering(t *testing.T) {
	var e Engine
	var got []string
	after(&e, time.Millisecond, func() {
		got = append(got, "a")
		after(&e, 0, func() { got = append(got, "a0") })
	})
	after(&e, time.Millisecond, func() {
		got = append(got, "b")
		after(&e, 0, func() {
			got = append(got, "b0")
			after(&e, 0, func() { got = append(got, "b00") })
		})
	})
	after(&e, 2*time.Millisecond, func() { got = append(got, "c") })
	for e.Step() {
	}
	want := []string{"a", "b", "a0", "b0", "b00", "c"}
	if len(got) != len(want) {
		t.Fatalf("ran %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if e.Now() != 2*time.Millisecond {
		t.Errorf("now = %v, want 2ms", e.Now())
	}
	if e.Pending() != 0 {
		t.Errorf("pending = %d after drain", e.Pending())
	}
}

// orderHandler records timer dispatches into a shared log.
type orderHandler struct{ log *[]string }

func (h *orderHandler) handle(ent heapEntry) {
	if ent.kind == evTimer {
		*h.log = append(*h.log, "timer")
	}
}

// TestEngineZeroDelayWaitsForTimers: a timer entry scheduled between two
// same-instant callbacks dispatches in its seq position, and a zero-delay
// event spawned before the timer fires still runs after it.
func TestEngineZeroDelayWaitsForTimers(t *testing.T) {
	var e Engine
	var log []string
	e.bind(&orderHandler{log: &log}, 2*core.NumTimerKinds)
	after(&e, time.Millisecond, func() {
		log = append(log, "a")
		// Spawned at the timer's instant: must run after it.
		after(&e, 0, func() { log = append(log, "a0") })
	})
	e.scheduleTimer(timerKey(1, core.TimerSuspicion), 1, time.Millisecond)
	after(&e, time.Millisecond, func() { log = append(log, "b") })
	for e.Step() {
	}
	want := []string{"a", "timer", "b", "a0"}
	if len(log) != len(want) {
		t.Fatalf("ran %v, want %v", log, want)
	}
	for i := range want {
		if log[i] != want[i] {
			t.Fatalf("order = %v, want %v", log, want)
		}
	}
}
