package sim

import (
	"math/rand"
	"testing"
	"time"
)

// orderModel is the reference the engine's two queues (heap and arrivals
// lane) are checked against: one flat list of pending entries,
// dispatched by scanning for the smallest (at, seq). It mirrors the
// engine's contract and nothing of its structure: a delay is clamped at
// zero, every schedule call stamps the next seq, and arming a timer
// whose entry is still pending replaces that entry.
type orderModel struct {
	t       *testing.T
	e       *Engine
	now     time.Duration
	next    uint64
	pending []heapEntry
	ops     []byte // the script; exhausted means "do nothing more"
	ran     int

	// What the script provoked: events scheduled at the current instant,
	// and timers whose pending entry was re-armed to it.
	zeroDelay, rearmNow int
}

func (m *orderModel) op() byte {
	if len(m.ops) == 0 {
		return 0
	}
	b := m.ops[0]
	m.ops = m.ops[1:]
	return b
}

// delay picks a delay class from one script byte: zero, a handful of
// coarse values that collide often (equal instants), a value that lands
// before most of what is queued (decreasing), or a long one.
func (m *orderModel) delay(b byte) time.Duration {
	switch b % 8 {
	case 0, 1:
		return 0
	case 2:
		return -time.Duration(b) // negative: runs now
	case 3, 4:
		return time.Duration(b%4) * 10
	case 5:
		return 1
	default:
		return time.Duration(b) * 7
	}
}

var orderKinds = []eventKind{evRequest, evFail, evRecover, evRelease, evDeliver}

const orderTimerKeys = 6

// schedule issues one scripted scheduling call to engine and model alike.
func (m *orderModel) schedule() {
	b := m.op()
	d := m.delay(m.op())
	at := m.now + max(d, 0)
	m.next++
	if b%3 == 0 {
		key := int32(b/3) % orderTimerKeys
		ent := heapEntry{at: at, seq: m.next, kind: evTimer, ref: key}
		replaced := false
		for i := range m.pending {
			if m.pending[i].kind == evTimer && m.pending[i].ref == key {
				m.pending[i] = ent
				replaced = true
			}
		}
		if !replaced {
			m.pending = append(m.pending, ent)
		} else if d <= 0 {
			m.rearmNow++
		}
		m.e.scheduleTimer(key, m.next, d)
		return
	}
	if d <= 0 {
		m.zeroDelay++
	}
	kind := orderKinds[int(b)%len(orderKinds)]
	m.pending = append(m.pending, heapEntry{at: at, seq: m.next, kind: kind, ref: int32(b)})
	m.e.schedule(d, kind, int32(b))
}

// popMin removes and returns the reference's next entry.
func (m *orderModel) popMin() heapEntry {
	min := 0
	for i := range m.pending {
		if entryLess(&m.pending[i], &m.pending[min]) {
			min = i
		}
	}
	ent := m.pending[min]
	m.pending = append(m.pending[:min], m.pending[min+1:]...)
	return ent
}

// handle is the engine's dispatcher: the event must be the reference's
// next, and may itself schedule more — at the current instant included,
// possibly while a timer of this instant is still in the heap.
func (m *orderModel) handle(ent heapEntry) {
	if len(m.pending) == 0 {
		m.t.Fatalf("event %d: engine dispatched %+v, the reference has nothing pending", m.ran, ent)
	}
	want := m.popMin()
	if ent != want {
		m.t.Fatalf("event %d: engine dispatched %+v, the reference %+v", m.ran, ent, want)
	}
	if m.e.Now() != ent.at {
		m.t.Fatalf("event %d: clock %v at an event due %v", m.ran, m.e.Now(), ent.at)
	}
	m.now = ent.at
	m.ran++
	for n := m.op() % 4; n > 0; n-- {
		m.schedule()
	}
	m.check()
}

// check compares what the engine reports of its queues with the model.
func (m *orderModel) check() {
	if got := m.e.Pending(); got != len(m.pending) {
		m.t.Fatalf("after %d events: Pending() = %d, the reference holds %d", m.ran, got, len(m.pending))
	}
	f, _ := m.e.front()
	if (f != nil) != (len(m.pending) > 0) {
		m.t.Fatalf("after %d events: front is %v with %d pending", m.ran, f, len(m.pending))
	}
	if f != nil {
		min := m.pending[0]
		for i := range m.pending {
			if entryLess(&m.pending[i], &min) {
				min = m.pending[i]
			}
		}
		if *f != min {
			m.t.Fatalf("after %d events: front is %+v, the reference's next %+v", m.ran, *f, min)
		}
	}
}

// runOrderModel plays one script: top-level bytes choose between
// scheduling, stepping, and jumping the clock with RunUntil; bytes
// consumed inside handle make dispatched events schedule more. It
// returns the model for its counts.
func runOrderModel(t *testing.T, script []byte) *orderModel {
	var e Engine
	m := &orderModel{t: t, e: &e, ops: script}
	e.bind(m, orderTimerKeys)
	for len(m.ops) > 0 {
		switch b := m.op(); {
		case b%8 < 4:
			m.schedule()
			m.check()
		case b%8 < 7:
			if had := len(m.pending) > 0; e.Step() != had {
				t.Fatalf("Step reported %v with %d pending before it", !had, len(m.pending))
			}
		default:
			deadline := m.now + m.delay(m.op())*3
			e.RunUntil(deadline)
			for _, ent := range m.pending {
				if ent.at <= deadline {
					t.Fatalf("RunUntil(%v) left %+v pending", deadline, ent)
				}
			}
			if deadline > m.now {
				m.now = deadline
			}
			if e.Now() != m.now {
				t.Fatalf("RunUntil(%v): clock %v, want %v", deadline, e.Now(), m.now)
			}
		}
	}
	for e.Step() {
	}
	if len(m.pending) != 0 {
		t.Fatalf("engine drained with %d entries still pending in the reference", len(m.pending))
	}
	return m
}

// TestEngineOrderMatchesReference: whatever mix of lane appends, heap
// pushes, zero-delay schedules and in-place timer reschedules a script
// provokes, the dispatched (at, seq, kind, ref) sequence is the
// reference's. The scripts must schedule at the current instant and
// re-arm a pending timer to it, or the same-instant order goes untested.
func TestEngineOrderMatchesReference(t *testing.T) {
	zeroDelay, rearmNow := 0, 0
	for seed := int64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		script := make([]byte, 200+rng.Intn(1800))
		rng.Read(script)
		m := runOrderModel(t, script)
		zeroDelay += m.zeroDelay
		rearmNow += m.rearmNow
	}
	t.Logf("%d zero-delay schedules, %d timers re-armed to the current instant", zeroDelay, rearmNow)
	if zeroDelay == 0 || rearmNow == 0 {
		t.Fatalf("scripts provoked %d zero-delay schedules and %d timer re-arms to the current instant; want both > 0",
			zeroDelay, rearmNow)
	}
}

// TestEngineOrderAcrossLaneChunks: an in-order schedule far longer than
// a lane chunk, interleaved with out-of-order entries that take the heap
// and timers that stay in it, dispatches in (at, seq) order and leaves
// nothing behind.
func TestEngineOrderAcrossLaneChunks(t *testing.T) {
	var e Engine
	m := &orderModel{t: t, e: &e}
	e.bind(m, orderTimerKeys)
	const n = 5*laneMaxChunk + 17
	for i := 0; i < n; i++ {
		// In order, with runs of equal instants.
		m.next++
		at := time.Duration(i/3) * 5
		m.pending = append(m.pending, heapEntry{at: at, seq: m.next, kind: evRequest, ref: int32(i)})
		e.schedule(at, evRequest, int32(i))
		if i%7 == 0 {
			// Before the lane's tail: a heap entry.
			m.next++
			m.pending = append(m.pending, heapEntry{at: at / 2, seq: m.next, kind: evFail, ref: int32(i)})
			e.schedule(at/2, evFail, int32(i))
		}
		if i%11 == 0 {
			key := int32(i/11) % orderTimerKeys
			m.ops = []byte{byte(3 * key), 6}
			m.schedule()
		}
	}
	m.ops = nil
	if e.lane.n < 5*laneMaxChunk {
		t.Fatalf("lane holds %d of %d in-order entries", e.lane.n, n)
	}
	for e.Step() {
	}
	if len(m.pending) != 0 || e.Pending() != 0 {
		t.Fatalf("drained with %d pending in the reference, %d in the engine", len(m.pending), e.Pending())
	}
}

// FuzzEngineOrder feeds runOrderModel arbitrary scripts.
func FuzzEngineOrder(f *testing.F) {
	// Schedule at zero, equal and decreasing delays, then drain.
	f.Add([]byte{1, 0, 1, 3, 1, 4, 2, 5, 1, 2, 4, 4, 4})
	// A timer re-armed to now, earlier and later around plain events.
	f.Add([]byte{0, 6, 1, 3, 0, 0, 3, 5, 0, 7, 4, 2, 1, 0, 4, 4})
	// Events spawned at the current instant while a timer of that
	// instant is still in the heap.
	f.Add([]byte{1, 3, 0, 3, 1, 3, 4, 3, 1, 0, 0, 0, 4, 2, 1, 0, 1, 0, 4, 4, 4})
	// RunUntil clock jumps between bursts.
	f.Add([]byte{1, 6, 2, 6, 7, 5, 1, 0, 7, 255, 2, 3, 7, 3, 4})
	// Fail/Recover kinds in order (lane) then out of order (heap).
	f.Add([]byte{1, 255, 2, 254, 1, 6, 2, 3, 4, 4, 4, 4})
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 4096 {
			script = script[:4096]
		}
		runOrderModel(t, script)
	})
}
