package core

import (
	"testing"
	"time"
)

// TestNewNodeAllocs pins the host's two allocation contracts. NewNode is a
// host of one: the node and its Host, Emitter included, are a single
// allocation. And a warm Host steps a minted node through a loaned grant —
// RequestCS, the lent token, ReleaseCS, the ack of the returned token —
// without touching the heap, every effect (the sends, the suspicion and
// transfer-ack timers, the grant) emitted into the Emitter's recycled
// arenas, which CheckPools finds consistent after each input.
func TestNewNodeAllocs(t *testing.T) {
	cfg := Config{Self: 1, P: 1, FT: true, Delta: time.Millisecond, CSEstimate: time.Millisecond}
	if got := testing.AllocsPerRun(100, func() {
		if _, err := NewNode(cfg); err != nil {
			t.Fatal(err)
		}
	}); got != 1 {
		t.Errorf("NewNode: %v allocations, want 1", got)
	}

	h, err := NewHost(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n := h.NewNode(7)
	// step checks one input's effects and returns the message it sent.
	step := func(input string, effs []Effect, err error, want int) (sent Message) {
		if err != nil {
			t.Fatalf("%s: %v", input, err)
		}
		if len(effs) != want {
			t.Fatalf("%s: %d effects, want %d", input, len(effs), want)
		}
		for _, e := range effs {
			if s, ok := e.(*Send); ok {
				sent = s.Msg
			}
		}
		if err := n.CheckPools(); err != nil {
			t.Fatalf("%s: %v", input, err)
		}
		return sent
	}
	cycle := func() {
		effs, err := n.RequestCS()
		req := step("RequestCS", effs, err, 2) // request to the root, suspicion timer
		tok := Message{Kind: KindToken, From: 0, To: 1, Lender: 0, Source: req.Source, Seq: req.Seq}
		step("token", n.HandleMessage(tok), nil, 1) // grant
		effs, err = n.ReleaseCS()
		ret := step("ReleaseCS", effs, err, 2) // token back to the lender, transfer-ack timer
		step("ack", n.HandleMessage(Message{Kind: KindTokenAck, From: 0, To: 1, Seq: ret.Seq}), nil, 0)
		if n.Busy() {
			t.Fatal("node busy after the cycle")
		}
	}
	for i := 0; i < 4; i++ {
		cycle()
	}
	if got := testing.AllocsPerRun(100, cycle); got != 0 {
		t.Errorf("warm host: %v allocations per RequestCS → HandleMessage → ReleaseCS cycle, want 0", got)
	}
}
