// Package a seeds arena-retention bugs against the real effect types:
// package-level transients, effect pointers parked in struct fields and
// goroutine closures capturing arena-backed slices. The legal shapes —
// locals that die with the driver call, immediate processing — sit next
// to them.
package a

import "repro/internal/core"

var pending []core.Effect // want "package-level pending holds an arena-backed effect type"

type driver struct {
	last  core.Effect
	all   []core.Effect
	grant *core.Grant
}

func (d *driver) retain(effs []core.Effect) {
	d.all = effs     // want "stored in struct field d.all"
	d.last = effs[0] // want "stored in struct field d.last"
	for _, e := range effs {
		if g, ok := e.(*core.Grant); ok {
			d.grant = g // want "stored in struct field d.grant"
		}
	}
}

func launch(effs []core.Effect) {
	go func() {
		process(effs) // want "effs captured by a go statement escapes"
	}()
}

func process([]core.Effect) {}

func local(effs []core.Effect) int {
	n := 0
	for _, e := range effs {
		if _, ok := e.(*core.Send); ok {
			n++ // inspecting inside the driver call is the intended use
		}
	}
	first := effs[0] // a local dies with the call: legal
	_ = first
	return n
}

func copied(effs []core.Effect) []core.Message {
	var msgs []core.Message
	for _, e := range effs {
		if s, ok := e.(*core.Send); ok {
			msgs = append(msgs, s.Msg) // copying the data out: legal
		}
	}
	return msgs
}

// The effect scratch belongs to the host, not the node: a call into a
// sibling instance recycles what an earlier call handed out.

func siblings(h *core.Host, m core.Message) (int, int) {
	a, b := h.NewNode(1), h.NewNode(2)
	effsA := a.HandleMessage(m)
	effsB := b.HandleMessage(m)
	return len(effsA), len(effsB) // want "effsA holds effects of an earlier node call, but b.HandleMessage has since recycled"
}

func sameNode(n *core.Node, m core.Message) {
	effs, err := n.RequestCS()
	if err != nil {
		return
	}
	more := n.HandleMessage(m)
	process(effs) // want "effs holds effects of an earlier node call, but n.HandleMessage has since recycled"
	process(more)
}

func translateThenCall(h *core.Host, m core.Message) []core.Message {
	a, b := h.NewNode(1), h.NewNode(2)
	effs := a.HandleMessage(m)
	out := copied(effs) // translated before the next call: legal
	effs = b.HandleMessage(m)
	return append(out, copied(effs)...) // the variable was reassigned by the later call: legal
}

func nested(a, b *core.Node, m core.Message) {
	process(a.HandleMessage(m)) // consumed where it is produced: legal
	process(b.HandleMessage(m))
}
