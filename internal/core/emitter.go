package core

import "repro/internal/ocube"

// Emitter accumulates effects for algorithm state machines implemented
// outside this package (the Raymond and Naimi-Trehel baselines), following
// the same arena conventions as Node's internal emission: every entry
// point calls Begin first, effect values live in per-emitter scratch
// arenas that are recycled on the next Begin, and the slice returned by
// Take — together with the pointer-boxed values it holds — is valid only
// until the next call into the owning state machine. Drivers satisfy that
// rule by executing (or copying) every effect before delivering further
// inputs, exactly as they must for Node. Once the arenas are warm,
// emission allocates nothing.
type Emitter struct {
	effects []Effect
	sends   []Send
	grants  []Grant
}

// Begin starts a new driver call: effects handed out by the previous call
// expire now and the backing arenas are recycled in place.
func (e *Emitter) Begin() {
	e.effects = e.effects[:0]
	e.sends = e.sends[:0]
	e.grants = e.grants[:0]
}

// Send appends a Send effect for m.
func (e *Emitter) Send(m Message) {
	e.sends = append(e.sends, Send{Msg: m})
	e.effects = append(e.effects, &e.sends[len(e.sends)-1])
}

// Grant appends a Grant effect with the given lender.
func (e *Emitter) Grant(lender ocube.Pos) {
	e.grants = append(e.grants, Grant{Lender: lender})
	e.effects = append(e.effects, &e.grants[len(e.grants)-1])
}

// Take hands the accumulated effects to the driver (nil when none).
func (e *Emitter) Take() []Effect {
	if len(e.effects) == 0 {
		return nil
	}
	return e.effects
}
