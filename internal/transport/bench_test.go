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
// frame to its destination's Frame in send order at once. One op is one
// batch of one envelope, sent by the two ends in turn as a roaming token's
// traffic is; virtual time then advances a millisecond and every machine
// whose deadline came due is ticked. Acks ride the other end's next data
// frame, and every other batch is an unlent token, so half the retired
// frames hand back a receipt. ns/input and allocs/input divide by the
// machine inputs the op took (Send, Frame, Tick), like core's
// BenchmarkNodeStep and lockspace's BenchmarkMachineStep.
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
		batch := batches[from][k/2%ring][:]
		batch[0] = core.Envelope{Msg: core.Message{Kind: core.KindRequest, From: from, To: to, Seq: uint64(k)}}
		if k/2%2 == 1 {
			batch[0].Msg.Kind, batch[0].Msg.Lender = core.KindToken, ocube.None
		}
		link = ms[from].Send(now, to, batch, link[:0])
		inputs++
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
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op(warm + i)
	}
	b.StopTimer()
	runtime.ReadMemStats(&m1)
	if delivered != b.N || rcpts < (b.N-2)/2 {
		b.Fatalf("%d envelopes delivered and %d receipts for %d ops", delivered, rcpts, b.N)
	}
	if st := ms[0].Stats().Add(ms[1].Stats()); st.Retransmits != 0 || st.DupDrops != 0 {
		b.Fatalf("a lossless link cost retransmits or duplicates: %+v", st)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(inputs), "ns/input")
	b.ReportMetric(float64(m1.Mallocs-m0.Mallocs)/float64(inputs), "allocs/input")
	b.ReportMetric(float64(inputs)/float64(b.N), "inputs/op")
}
