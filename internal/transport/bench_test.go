package transport

import (
	"math/rand"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/ocube"
)

// BenchmarkSessionStep prices the session machine alone, with no driver,
// socket or engine: two Machines and a scripted link that hands every
// frame to its destination's Frame at once. One op is two batches of one
// envelope, a request and an unlent token, sent by the two ends in turn
// as a roaming token's traffic is; virtual time then advances a
// millisecond and every machine whose deadline came due is ticked. The
// link lets the token's frame overtake the request's, so every op has
// one out-of-order arrival: the receiver parks it in its mask until the
// request fills the gap, and the window that acknowledges both rides on
// the next op's frames the other way. Each token's retired frame hands
// back a receipt. ns/input and allocs/input divide by the machine inputs
// the op took (Send, Frame, Tick), like core's BenchmarkNodeStep and
// lockspace's BenchmarkMachineStep.
func BenchmarkSessionStep(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	ms := [2]*Machine{NewMachine(0, SessionConfig{}, rng), NewMachine(1, SessionConfig{}, rng)}
	// A sender cycles through ring batches, more than a window's worth:
	// the machine keeps each until its ack.
	const ring = 256
	var batches [2][ring][1]core.Envelope
	var (
		now              time.Duration
		link, next       []Outgoing
		rcpt             = make([]core.Envelope, 0, 4)
		inputs           int
		delivered, rcpts int
	)
	settle := func() {
		for len(link) > 0 {
			next = next[:0]
			for _, o := range link {
				var batch []core.Envelope
				batch, rcpt, next = ms[o.To].Frame(now, o.Frame, next, rcpt[:0])
				delivered += len(batch)
				rcpts += len(rcpt)
				inputs++
			}
			link, next = next, link
		}
	}
	op := func(k int) {
		from, to := ocube.Pos(k%2), ocube.Pos(1-k%2)
		i := k % ring &^ 1 // two slots per op
		req, tok := batches[from][i][:], batches[from][i+1][:]
		req[0] = core.Envelope{Msg: core.Message{Kind: core.KindRequest, From: from, To: to, Seq: uint64(k)}}
		tok[0] = core.Envelope{Msg: core.Message{Kind: core.KindToken, From: from, To: to, Lender: ocube.None, Seq: uint64(k)}}
		link = ms[from].Send(now, to, req, link[:0])
		link = ms[from].Send(now, to, tok, link)
		link[0], link[1] = link[1], link[0]
		inputs += 2
		settle()
		now += time.Millisecond
		for _, m := range ms {
			if m.Deadline() <= now {
				link = m.Tick(now, link)
				inputs++
			}
		}
		settle()
	}
	const warm = 2 * ring
	for k := 0; k < warm; k++ {
		op(k)
	}
	inputs, delivered, rcpts = 0, 0, 0
	acks := ms[0].Stats().AckFrames + ms[1].Stats().AckFrames
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op(warm + i)
	}
	b.StopTimer()
	runtime.ReadMemStats(&m1)
	if delivered != 2*b.N || rcpts < b.N-2 {
		b.Fatalf("%d envelopes delivered and %d receipts for %d ops", delivered, rcpts, b.N)
	}
	st := ms[0].Stats().Add(ms[1].Stats())
	if st.Retransmits != 0 || st.DupDrops != 0 {
		b.Fatalf("a lossless link cost retransmits or duplicates: %+v", st)
	}
	if acks = st.AckFrames - acks; acks != 0 {
		b.Fatalf("%d pure acks for %d ops: a window did not ride on the next frame back", acks, b.N)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(inputs), "ns/input")
	b.ReportMetric(float64(m1.Mallocs-m0.Mallocs)/float64(inputs), "allocs/input")
	b.ReportMetric(float64(inputs)/float64(b.N), "inputs/op")
}
