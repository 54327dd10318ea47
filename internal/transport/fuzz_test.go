package transport

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/ocube"
)

// FuzzSessionDedup drives the receiver half of a Machine — no link, no
// goroutine, its clock advanced by hand — with arbitrary
// interleavings of hand-crafted frames — duplicates, stale boots, boot
// bumps, out-of-order sequence jumps, garbage acks — and checks the
// delivered stream against a reference model of the dedup contract:
// within one sender incarnation every sequence number is delivered at
// most once, a higher boot — on a data frame or a pure ack — restarts the
// sequence space, a lower boot delivers nothing, neither does a frame
// addressed to another incarnation of the receiver, and neither does one
// numbered more than the window (64) above the highest sequence number
// below which everything was delivered; and every ack the receiver puts
// on the link is the model's window of the sender's current boot, (Ack,
// AckMask) = (that highest number, the set of delivered ones above it).
// The seed corpus (f.Add plus testdata/fuzz) encodes the E11
// duplicate-token shapes: the same transfer frame re-sent after an ack
// loss, and a reborn node replaying its old sequence numbers.
//
// Input encoding: 3 bytes per op — opcode (mod 6), boot (1..4 before
// bumps), seq (0..15; 0 is a pure ack wire-wise).
//
//	op 0: send data frame (boot, seq)
//	op 1: send it twice (the retransmit-duplicate shape)
//	op 2: send a pure ack frame (acks against no sender state; its boot
//	      still announces the sender's incarnation)
//	op 3: send (boot, seq+64) — a far-future seq: delivered and parked in
//	      the mask while the window reaches it, refused beyond
//	op 4: send (boot+4, seq) — a rebirth bump
//	op 5: send (boot, seq) carrying an ack window (Ack, AckMask) and a
//	      ToBoot taken from the raw bytes — a piggybacked ack must not
//	      disturb the data half of its frame, and only ToBoot 0 or the
//	      receiver's own boot (1) let the payload through
func FuzzSessionDedup(f *testing.F) {
	// Retransmit duplicate: one frame, then the same frame twice more.
	f.Add([]byte{0, 1, 1, 1, 1, 1})
	// E11 duplicate token: transfer sent, ack lost, transfer re-sent.
	f.Add([]byte{0, 2, 3, 1, 2, 3, 2, 2, 3, 1, 2, 3})
	// Rebirth replay: boot 1 delivers, boot 5 resets the window and
	// reuses seq 1, then a boot-1 straggler must be refused.
	f.Add([]byte{0, 1, 1, 4, 1, 1, 0, 1, 1})
	// Out-of-order window: a far-future seq beyond the window is refused,
	// and again after two deliveries that do not bring the window to it.
	f.Add([]byte{3, 1, 5, 0, 1, 1, 0, 1, 2, 3, 1, 5})
	// The window's edge: seq 64 parks in the mask's last bit with nothing
	// delivered, 65 is refused until seq 1 arrives, then it is delivered.
	f.Add([]byte{3, 1, 0, 3, 1, 1, 0, 1, 1, 3, 1, 1})
	// Ack-only noise around a delivery.
	f.Add([]byte{2, 1, 1, 0, 1, 1, 2, 1, 1, 2, 3, 0})
	// Garbage piggybacked acks on a delivery, its duplicate and a rebirth.
	f.Add([]byte{5, 1, 1, 5, 0x71, 0xff, 5, 0x41, 0x31, 4, 1, 1, 5, 0x7f, 0x12})
	// Frames addressed to another incarnation of the receiver: refused,
	// though a higher boot on them still resets the window.
	f.Add([]byte{0, 1, 1, 5, 0x81, 0x02, 5, 0xc2, 0x01, 0, 1, 1, 0, 2, 1})

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 600 {
			data = data[:600]
		}
		b := NewMachine(1, SessionConfig{}, rand.New(rand.NewSource(1)))
		var got []uint64
		now := time.Duration(0)
		// Reference model: the delivery stream the dedup contract allows,
		// and the window it leaves.
		var want []uint64
		cur := uint64(0)
		seen := make(map[uint64]struct{})
		high := uint64(0) // every seq ≤ high of boot cur was delivered
		model := func(boot, seq, toBoot uint64) {
			if boot < cur {
				return
			}
			if boot > cur {
				cur, high = boot, 0
				seen = make(map[uint64]struct{})
			}
			if seq == 0 || toBoot > 1 || seq > high+window {
				return
			}
			if _, dup := seen[seq]; dup {
				return
			}
			seen[seq] = struct{}{}
			for _, ok := seen[high+1]; ok; _, ok = seen[high+1] {
				high++
			}
			want = append(want, boot<<32|seq)
		}
		mask := func() (m uint64) {
			for seq := range seen {
				if seq > high {
					m |= 1 << (seq - high - 1)
				}
			}
			return m
		}

		// step hands b one frame, a millisecond after the last, and lets its
		// timer run if it is due; the model has taken the frame already. b
		// never sends, so all it may put on the link is pure acks, each the
		// model's window, and bare frames, which acknowledge nothing.
		step := func(f SessFrame) {
			now += time.Millisecond
			batch, receipts, out := b.Frame(now, f, nil, nil)
			if len(receipts) != 0 {
				t.Fatalf("a machine that never sent was handed receipts %v", receipts)
			}
			if b.deadline <= now {
				out = b.Tick(now, out)
			}
			if batch != nil {
				if len(batch) != 1 {
					t.Fatalf("torn batch: %d envelopes", len(batch))
				}
				got = append(got, batch[0].Instance)
			}
			for _, o := range out {
				if o.To != 0 || o.Frame.Seq != 0 || o.Frame.Batch != nil {
					t.Fatalf("a machine that never sent put %+v on the link", o)
				}
				if a := o.Frame; (a.Ack != 0 || a.AckMask != 0) && (a.ToBoot != cur || a.Ack != high || a.AckMask != mask()) {
					t.Fatalf("ack %+v, model's window is boot %d, Ack %d, AckMask %#x", a, cur, high, mask())
				}
			}
			if b.Unacked() != 0 {
				t.Fatalf("Unacked() = %d on a machine that never sent", b.Unacked())
			}
		}

		var ack SessFrame // ack fields of the next data frame
		send := func(boot, seq uint64) {
			model(boot, seq, ack.ToBoot)
			step(SessFrame{
				From: 0, Boot: boot, Seq: seq,
				Ack: ack.Ack, AckMask: ack.AckMask, ToBoot: ack.ToBoot,
				Batch: []core.Envelope{{Instance: boot<<32 | seq}},
			})
			ack = SessFrame{}
		}

		for i := 0; i+2 < len(data); i += 3 {
			op := data[i] % 6
			boot := uint64(data[i+1]%4) + 1
			seq := uint64(data[i+2] % 16)
			switch op {
			case 0:
				send(boot, seq)
			case 1:
				send(boot, seq)
				send(boot, seq)
			case 2:
				model(boot, 0, 0)
				step(SessFrame{From: 0, Boot: boot, Ack: seq})
			case 3:
				send(boot, seq+64)
			case 4:
				send(boot+4, seq)
			case 5:
				// ToBoot 1 is the receiver's own boot, so some of these
				// reach retire: masks reaching the top bit, acks of
				// unknown seqs.
				ack = SessFrame{Ack: uint64(data[i+2]), ToBoot: uint64(data[i+1] >> 6), AckMask: uint64(data[i+1])<<56 | uint64(data[i+2])}
				send(boot, seq)
			}
		}

		if len(got) != len(want) {
			t.Fatalf("delivered %d batches, model wants %d\n got %x\nwant %x", len(got), len(want), got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("delivery %d = %x, model wants %x", i, got[i], want[i])
			}
		}
	})
}

// FuzzMachineReceipts drives both halves of two machines over the rig's
// scripted link (machine_test.go) — every frame's fate, lost, prompt or
// late enough to be overtaken and retransmitted over, comes from the
// input — while both nodes send unlent tokens, loans and plain envelopes,
// and checks the receipt contract against a count: a node is never
// handed more receipts than it has sent unlent tokens, never two for one
// token, and once the link stops losing frames and everything has come
// to rest, exactly one for each.
//
// Input encoding: 2 bytes per op — the low two bits of the first pick
// what node (bit 2) sends: an unlent token, a loan, a plain envelope, or
// nothing; the second byte is how long the rig then runs (0..255 ms) and,
// read again per frame with its index, that frame's fate.
func FuzzMachineReceipts(f *testing.F) {
	f.Add([]byte{0, 1, 4, 1, 0, 30, 4, 200})              // tokens both ways, acks riding and alone
	f.Add([]byte{0, 0, 0, 0, 0, 0, 1, 0, 2, 0, 3, 90})    // a burst: window acks, one loan, one plain
	f.Add([]byte{0, 7, 0, 7, 4, 7, 0, 14, 4, 21, 3, 250}) // fates that lose and delay every few frames
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 400 {
			data = data[:400]
		}
		r := newMachRig(t, 4)
		salt := byte(0)
		r.fate = func(n int, _ ocube.Pos, _ SessFrame) time.Duration {
			switch x := (salt + byte(n)*37) % 8; x {
			case 0, 1:
				return -1
			case 2:
				return 3 * rigRTO // outlives a retransmission
			default:
				return rigTransit * time.Duration(x)
			}
		}
		var stamped [2]int
		tag := uint64(0)
		check := func() {
			for i := range r.m {
				if len(r.rcpt[i]) > stamped[i] {
					t.Fatalf("node %d sent %d unlent tokens and was handed %d receipts", i, stamped[i], len(r.rcpt[i]))
				}
				seen := make(map[uint64]bool)
				for _, env := range r.rcpt[i] {
					if seen[env.Instance] {
						t.Fatalf("node %d was handed two receipts for token %d", i, env.Instance)
					}
					seen[env.Instance] = true
				}
			}
		}
		for i := 0; i+1 < len(data); i += 2 {
			from := ocube.Pos(data[i] >> 2 & 1)
			salt = data[i+1]
			tag++
			switch data[i] & 3 {
			case 0:
				stamped[from]++
				r.sendEnvs(from, token(from, tag, ocube.None))
			case 1:
				r.sendEnvs(from, token(from, tag, from))
			case 2:
				r.send(from, tag)
			}
			r.run(r.now + time.Duration(data[i+1])*time.Millisecond)
			check()
		}
		r.fate = nil // the loss-free tail
		r.rest()
		check()
		for i := range r.m {
			if len(r.rcpt[i]) != stamped[i] || r.m[i].Unacked() != 0 {
				t.Fatalf("at rest node %d has %d receipts for %d unlent tokens, %d batches unacknowledged",
					i, len(r.rcpt[i]), stamped[i], r.m[i].Unacked())
			}
		}
	})
}
