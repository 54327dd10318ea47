package core

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/ocube"
)

// BenchmarkNodeStep prices the protocol state machine alone, with no
// driver, engine or wire: two fault-tolerant nodes of a one-dimensional
// cube and a scripted link that delivers in send order at once. The script
// executes every effect as a driver does: a Send goes on the link, a Grant
// is released at once, and every StartTimer is fired at its deadline —
// dead ones included, as a driver that never reaps would. One op is one
// roaming grant: the requester alternates between the nodes, so the token
// always travels, and virtual time then advances a millisecond and fires
// the timers that came due. ns/input and allocs/input divide by the node
// inputs the op took (RequestCS, ReleaseCS, HandleMessage, HandleTimer).
// BenchmarkMachineStep's ns/input minus this reading is roughly what the
// keyed node adds per input.
func BenchmarkNodeStep(b *testing.B) {
	type timer struct {
		at   time.Duration
		node ocube.Pos
		st   StartTimer
	}
	var ns [2]*Node
	for i := range ns {
		n, err := NewNode(Config{Self: ocube.Pos(i), P: 1, FT: true,
			Delta: time.Millisecond, CSEstimate: time.Millisecond})
		if err != nil {
			b.Fatal(err)
		}
		ns[i] = n
	}
	var (
		now           time.Duration
		link          []Message
		pending, due  []timer
		inputs, grant int
	)
	// closed executes the effects of one input to node x.
	var closed func(x ocube.Pos, effs []Effect)
	closed = func(x ocube.Pos, effs []Effect) {
		inputs++
		granted := false
		for _, e := range effs {
			switch e := e.(type) {
			case *Send:
				link = append(link, e.Msg)
			case *StartTimer:
				pending = append(pending, timer{at: now + e.Delay, node: x, st: *e})
			case *Grant:
				granted = true
			}
		}
		if granted {
			grant++
			effs, err := ns[x].ReleaseCS()
			if err != nil {
				b.Fatal(err)
			}
			closed(x, effs)
		}
	}
	settle := func() {
		for i := 0; i < len(link); i++ {
			m := link[i]
			closed(m.To, ns[m.To].HandleMessage(m))
		}
		link = link[:0]
	}
	op := func(k int) {
		x := ocube.Pos(k % 2)
		effs, err := ns[x].RequestCS()
		if err != nil {
			b.Fatal(err)
		}
		closed(x, effs)
		settle()
		now += time.Millisecond
		due = due[:0]
		kept := 0
		for _, t := range pending {
			if t.at <= now {
				due = append(due, t)
			} else {
				pending[kept] = t
				kept++
			}
		}
		pending = pending[:kept]
		for _, t := range due {
			closed(t.node, ns[t.node].HandleTimer(t.st.Kind, t.st.Gen))
		}
		settle()
	}
	const warm = 64
	for k := 0; k < warm; k++ {
		op(k)
	}
	inputs, grant = 0, 0
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op(warm + i)
	}
	b.StopTimer()
	runtime.ReadMemStats(&m1)
	if grant != b.N || ns[0].Busy() || ns[1].Busy() {
		b.Fatalf("%d grants for %d ops, busy %v %v", grant, b.N, ns[0].Busy(), ns[1].Busy())
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(inputs), "ns/input")
	b.ReportMetric(float64(m1.Mallocs-m0.Mallocs)/float64(inputs), "allocs/input")
	b.ReportMetric(float64(inputs)/float64(b.N), "inputs/op")
}
