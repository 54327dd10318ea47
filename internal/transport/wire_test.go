package transport

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/ocube"
)

// fillDistinct sets every leaf field under v to a distinct non-zero
// value, walking the type: a field the hand-written codec does not carry
// comes back zero and fails the round trip, whichever struct it was
// added to. A kind the walk does not know fails the test outright, so a
// new field type forces a look at the codec too.
func fillDistinct(t *testing.T, v reflect.Value, next *uint64) {
	t.Helper()
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		*next++
		v.SetInt(int64(*next))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		*next++
		v.SetUint(*next)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fillDistinct(t, v.Field(i), next)
		}
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 2, 2))
		for i := 0; i < v.Len(); i++ {
			fillDistinct(t, v.Index(i), next)
		}
	default:
		t.Fatalf("the wire codec test cannot fill a %v (%v): extend the codec and this walk", v.Kind(), v.Type())
	}
}

// roundTrip frames f, reads the frame back through a wireReader and
// decodes it.
func roundTrip(t *testing.T, f SessFrame) SessFrame {
	t.Helper()
	buf, err := appendWireFrame(nil, f)
	if err != nil {
		t.Fatal(err)
	}
	r := newWireReader(bytes.NewReader(buf))
	body, err := r.next()
	if err != nil {
		t.Fatal(err)
	}
	got, err := readSessFrame(body)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.next(); err == nil {
		t.Fatal("bytes left over after the frame")
	}
	return got
}

// TestWireRoundTripEveryField is the completeness check of the codec: a
// frame with every field of SessFrame, core.Envelope and core.Message
// set to a distinct non-zero value survives the wire.
func TestWireRoundTripEveryField(t *testing.T) {
	var frame SessFrame
	var next uint64
	fillDistinct(t, reflect.ValueOf(&frame).Elem(), &next)
	if next > 255 {
		t.Fatalf("%d leaf fields: the one-byte fields no longer get distinct values", next)
	}
	if got := roundTrip(t, frame); !reflect.DeepEqual(got, frame) {
		t.Errorf("SessFrame:\n got %+v\nwant %+v", got, frame)
	}
	// The last position and an empty batch are legal too.
	ack := SessFrame{From: 1<<ocube.MaxP - 1, Boot: 1<<64 - 1, Ack: 9, ToBoot: 3, AckMask: 1<<64 - 1}
	if got := roundTrip(t, ack); !reflect.DeepEqual(got, ack) {
		t.Errorf("pure ack:\n got %+v\nwant %+v", got, ack)
	}
}

// TestWireRefusesNonPositionFrom: a frame whose From is not a position —
// ocube.None or any other negative, or 2^MaxP and above — is malformed,
// so garbage off a socket creates no session state for a peer that
// cannot exist.
func TestWireRefusesNonPositionFrom(t *testing.T) {
	for _, from := range []ocube.Pos{ocube.None, -1 << 31, 1 << ocube.MaxP, 1<<31 - 1} {
		body, err := appendSessFrame(nil, SessFrame{From: from, Boot: 1, Seq: 1, Batch: envBatch(1, 1)})
		if err != nil {
			t.Fatal(err)
		}
		if got, err := readSessFrame(body); err != errWireMalformed {
			t.Errorf("From %d: decoded %+v, err %v; want errWireMalformed", from, got, err)
		}
	}
}

// TestWireRejectsBeforeAllocating pins the caps: a declared length above
// a full frame fails in the reader without growing its buffer, and a
// declared count the body cannot hold fails in the decoder.
func TestWireRejectsBeforeAllocating(t *testing.T) {
	var huge [4]byte
	binary.LittleEndian.PutUint32(huge[:], wireMaxBody+1)
	r := newWireReader(bytes.NewReader(huge[:]))
	if _, err := r.next(); err != errWireMalformed {
		t.Errorf("oversized length: err = %v, want errWireMalformed", err)
	}
	if cap(r.scratch) != 0 {
		t.Errorf("reader grew its buffer to %d for an oversized length", cap(r.scratch))
	}

	body, err := appendSessFrame(nil, SessFrame{Seq: 1, Batch: envBatch(1, 2)})
	if err != nil {
		t.Fatal(err)
	}
	for _, count := range []uint32{1, 3, MaxBatch + 1, 1<<32 - 1} {
		binary.LittleEndian.PutUint32(body[4:], count)
		if got, err := readSessFrame(body); err == nil {
			t.Errorf("count %d over a 2-record body decoded to %d envelopes", count, len(got.Batch))
		}
	}
	if _, err := readSessFrame(body[:wireSessHead-1]); err == nil {
		t.Error("a body shorter than the frame head decoded")
	}
	if _, err := appendSessFrame(nil, SessFrame{Batch: make([]core.Envelope, MaxBatch+1)}); err == nil {
		t.Error("a batch above MaxBatch was encoded")
	}
}

// FuzzWireDecode feeds arbitrary bytes to everything that reads a socket
// in this package: the frame reader, then the decoder on every body it
// yields. Nothing may panic or hold more than a full frame, and
// whatever decodes must survive re-encoding unchanged — the decoder
// acceptss exactly what the encoder emits.
func FuzzWireDecode(f *testing.F) {
	for _, seed := range wireSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		r := newWireReader(bytes.NewReader(data))
		for {
			body, err := r.next()
			if err != nil {
				break
			}
			if len(body) > wireMaxBody {
				t.Fatalf("reader returned a %d-byte body", len(body))
			}
			if sf, err := readSessFrame(body); err == nil {
				if len(sf.Batch) > MaxBatch {
					t.Fatalf("batch of %d decoded", len(sf.Batch))
				}
				if again := roundTrip(t, sf); !reflect.DeepEqual(again, sf) {
					t.Fatalf("SessFrame changed on re-encoding:\n%+v\n%+v", sf, again)
				}
			}
		}
		if cap(r.scratch) > wireMaxBody {
			t.Fatalf("reader buffer grew to %d, cap is %d", cap(r.scratch), wireMaxBody)
		}
	})
}

// TestWireFlagBits pins the record's flags byte: bits 0–2 are Regen,
// FromSearcher and Receipted, each accepted alone; any of bits 3–7 makes
// the record malformed, so a flag a newer sender adds is refused, not
// silently dropped.
func TestWireFlagBits(t *testing.T) {
	rec := appendRecord(nil, core.Envelope{Msg: core.Message{Kind: core.KindToken, Lender: -1}})
	for flags, want := range map[byte]core.Message{
		0x01: {Regen: true},
		0x02: {FromSearcher: true},
		0x04: {Receipted: true},
	} {
		rec[55] = flags
		env, err := readRecord(rec)
		want.Kind, want.Lender = core.KindToken, -1
		if err != nil || env.Msg != want {
			t.Errorf("flags %#02x: decoded %+v, err %v; want %+v", flags, env.Msg, err, want)
		}
	}
	for _, flags := range []byte{0x08, 0x0c, 0x80, 0xfc} {
		rec[55] = flags
		if env, err := readRecord(rec); err != errWireMalformed {
			t.Errorf("flags %#02x: decoded %+v, err %v; want errWireMalformed", flags, env.Msg, err)
		}
	}
}

// wireSeeds are well-formed streams — a data frame, a pure ack, a bare
// hello, the three back to back, a frame whose one record has only flag
// bit 2 (Receipted) set — and one body in a layout the wire no longer
// carries (a bare envelope record). The corpus under testdata/fuzz adds
// malformed ones: torn frames, lying counts, an oversized length, unknown
// flag bits (0xFC: bit 2 is known now, bits 3–7 still refuse the record),
// and a From of −1 and of 2^MaxP ahead of one of 2^MaxP−1. Each of those
// but the oversized length comes twice: with the 48-byte head (the files
// named *_head48), and with the 44-byte head of the wire before the ack
// became a window, where every body is 4 bytes short of a well-formed
// one.
func wireSeeds(tb testing.TB) [][]byte {
	tb.Helper()
	frame := func(f SessFrame) []byte {
		b, err := appendWireFrame(nil, f)
		if err != nil {
			tb.Fatal(err)
		}
		return b
	}
	data := frame(SessFrame{From: 2, Boot: 4, Seq: 17, Ack: 12, ToBoot: 1, AckMask: 0b101, Batch: envBatch(9, 2)})
	ack := frame(SessFrame{From: 1, Boot: 1, Ack: 64, ToBoot: 1, AckMask: 1 << 63})
	hello := frame(SessFrame{From: 3, Boot: 2, ToBoot: 1})
	record := appendRecord([]byte{wireRecordSize, 0, 0, 0},
		core.Envelope{Msg: core.Message{Kind: core.KindToken, From: 3, To: 1, Lender: -1, Seq: 7, Epoch: 2, Fence: 9}})
	receipted := frame(SessFrame{From: 3, Boot: 2, Seq: 5, ToBoot: 1, Batch: []core.Envelope{
		{Instance: 7, Msg: core.Message{Kind: core.KindToken, From: 3, To: 1, Lender: -1, Seq: 7, Epoch: 2, Fence: 9, Receipted: true}}}})
	return [][]byte{data, ack, hello, record, receipted, bytes.Join([][]byte{data, ack, hello}, nil)}
}
