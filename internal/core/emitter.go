package core

import (
	"fmt"
	"time"
)

// Emitter accumulates the effects of one driver call for every algorithm
// state machine: Node (through its Host) and the Raymond and Naimi-Trehel
// baselines. Every entry point calls Begin first; effect values live in
// per-emitter scratch arenas that are recycled on the next Begin, and the
// slice returned by Take — together with the pointer-boxed values it
// holds — is valid only until the next call into the owning state machine
// (for a Host, into any of its nodes). Drivers satisfy that rule by
// executing (or copying) every effect before delivering further inputs.
// Once the arenas are warm, emission allocates nothing.
//
// An arena append that grows its backing array leaves earlier pointers
// aimed at the old array, whose entries are complete and immutable for
// the rest of the call — still safe to read.
type Emitter struct {
	effects []Effect
	sends   []Send
	timers  []StartTimer
	grants  []Grant
}

// Begin starts a new driver call: effects handed out by the previous call
// expire now and the backing arenas are recycled in place.
func (e *Emitter) Begin() {
	e.effects = e.effects[:0]
	e.sends = e.sends[:0]
	e.timers = e.timers[:0]
	e.grants = e.grants[:0]
}

// Send appends a Send effect for m.
func (e *Emitter) Send(m Message) {
	e.sends = append(e.sends, Send{Msg: m})
	e.effects = append(e.effects, &e.sends[len(e.sends)-1])
}

// StartTimer appends a StartTimer effect: fire kind's generation gen
// after delay.
func (e *Emitter) StartTimer(kind TimerKind, gen uint64, delay time.Duration) {
	e.timers = append(e.timers, StartTimer{Kind: kind, Gen: gen, Delay: delay})
	e.effects = append(e.effects, &e.timers[len(e.timers)-1])
}

// Grant appends a Grant effect with the given fencing token (zero for
// algorithms that do not fence).
func (e *Emitter) Grant(fence uint64) {
	e.grants = append(e.grants, Grant{Fence: fence})
	e.effects = append(e.effects, &e.grants[len(e.grants)-1])
}

// Take hands the accumulated effects to the driver (nil when none).
func (e *Emitter) Take() []Effect {
	if len(e.effects) == 0 {
		return nil
	}
	return e.effects
}

// check validates that the arenas hold exactly the values behind the
// effects handed out since the last Begin (CheckPools).
func (e *Emitter) check() error {
	if got, want := len(e.effects), len(e.sends)+len(e.timers)+len(e.grants); got != want {
		return fmt.Errorf("effect arenas hold %d values for %d effects", want, got)
	}
	return nil
}
