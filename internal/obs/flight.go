package obs

import (
	"sort"
	"sync"

	"repro/internal/core"
)

// Event is one flight-recorder entry: a protocol event (request, grant,
// lend, transfer, regeneration, lease reclaim, …) stamped with where
// and when it happened. At is virtual nanoseconds when recorded by the
// simulated runtime and wall UnixNano when recorded by the live one.
type Event struct {
	At       int64  `json:"at"`
	Node     int    `json:"node"`
	Instance uint64 `json:"instance"`
	Kind     string `json:"kind"`
	Peer     int    `json:"peer"`
	Epoch    uint32 `json:"epoch,omitempty"`
	Fence    uint64 `json:"fence,omitempty"`
	Seq      uint64 `json:"seq,omitempty"`
	Note     string `json:"note,omitempty"`
}

// ring is a bounded per-instance event buffer; once full, new events
// overwrite the oldest.
type ring struct {
	buf  []Event
	next int
	full bool
}

func (r *ring) push(ev Event) {
	r.buf[r.next] = ev
	r.next++
	if r.next == len(r.buf) {
		r.next = 0
		r.full = true
	}
}

// dump returns the ring's events oldest-first.
func (r *ring) dump() []Event {
	if !r.full {
		return append([]Event(nil), r.buf[:r.next]...)
	}
	out := make([]Event, 0, len(r.buf))
	out = append(out, r.buf[r.next:]...)
	return append(out, r.buf[:r.next]...)
}

// Flight is the token-lineage flight recorder: a bounded ring of recent
// Events per instance (per key). Recording is mutex-guarded and cheap —
// one map lookup and a slot write — and the recorder is shared freely
// across goroutines (live lockspace loop, chaos members, sim workers).
type Flight struct {
	mu    sync.Mutex
	depth int
	rings map[uint64]*ring
}

// DefaultFlightDepth is the per-instance ring depth used when NewFlight
// is given a non-positive one.
const DefaultFlightDepth = 64

// NewFlight returns a recorder keeping the last depth events per
// instance (DefaultFlightDepth when depth <= 0).
func NewFlight(depth int) *Flight {
	if depth <= 0 {
		depth = DefaultFlightDepth
	}
	return &Flight{depth: depth, rings: make(map[uint64]*ring)}
}

// Record appends ev to its instance's ring, evicting the oldest entry
// once the ring is full.
func (f *Flight) Record(ev Event) {
	f.mu.Lock()
	r := f.rings[ev.Instance]
	if r == nil {
		r = &ring{buf: make([]Event, f.depth)}
		f.rings[ev.Instance] = r
	}
	r.push(ev)
	f.mu.Unlock()
}

// Dump returns the recorded lineage of one instance, oldest-first
// (nil if the instance never recorded an event).
func (f *Flight) Dump(inst uint64) []Event {
	f.mu.Lock()
	defer f.mu.Unlock()
	r := f.rings[inst]
	if r == nil {
		return nil
	}
	return r.dump()
}

// Instances returns the sorted set of instances with recorded lineage.
func (f *Flight) Instances() []uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]uint64, 0, len(f.rings))
	for inst := range f.rings {
		out = append(out, inst)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Observer returns the core.Config.Observe hook of a driver that records
// into fl: each event goes into fl under the instance the reporting node
// was minted for, stamped by now (virtual time in the simulator, wall time
// live), and then to next — the caller's own hook, which a flight recorder
// never replaces. With fl nil the hook is next itself.
func Observer(fl *Flight, now func() int64, next func(core.TokenEvent)) func(core.TokenEvent) {
	if fl == nil {
		return next
	}
	return func(ev core.TokenEvent) {
		fl.Record(Event{
			At: now(), Node: int(ev.Self), Instance: ev.Instance,
			Kind: ev.Kind.String(), Peer: int(ev.Peer), Epoch: ev.Epoch,
			Fence: ev.Fence, Seq: ev.Seq, Note: ev.Reason,
		})
		if next != nil {
			next(ev)
		}
	}
}
