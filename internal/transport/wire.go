package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/ocube"
)

// This file is the codec of the one frame a TCP socket carries. A wire
// frame is a little-endian uint32 body length followed by the body, a
// SessFrame: a fixed head, then one fixed-size record per envelope, so a
// frame is encoded by appending into a buffer and decoded by indexing
// into one — no reflection, no type descriptors on the stream, and a
// body whose length does not match its declared count is rejected
// before anything is allocated.
//
// Body (wireSessHead bytes, then count records):
//
//	off size field
//	  0    4 From        (int32)
//	  4    4 count       (envelopes in Batch)
//	  8    8 Boot
//	 16    8 Seq
//	 24    8 Ack
//	 32    8 ToBoot
//	 40    8 AckMask
//
// Envelope record (wireRecordSize bytes; every field of core.Message
// plus Envelope.Instance):
//
//	off size field
//	  0    8 Instance
//	  8    8 Msg.Seq
//	 16    4 Msg.From    (int32)
//	 20    4 Msg.To      (int32)
//	 24    4 Msg.Target  (int32)
//	 28    4 Msg.Source  (int32)
//	 32    4 Msg.Lender  (int32)
//	 36    4 Msg.Gen
//	 40    4 Msg.Phase   (int32)
//	 44    4 Msg.Epoch
//	 48    4 Msg.Fence
//	 52    1 Msg.Kind
//	 53    1 Msg.Status
//	 54    1 Msg.Reply
//	 55    1 flags: bit 0 Msg.Regen, bit 1 Msg.FromSearcher,
//	         bit 2 Msg.Receipted; bits 3–7 must be zero
const (
	wireRecordSize = 56
	wireSessHead   = 48

	// MaxBatch caps the envelopes one wire frame may carry. A sender
	// refuses a larger batch; a reader that sees a larger declared count
	// (or a body longer than a full frame) drops the connection.
	MaxBatch = 1 << 16

	wireMaxBody = wireSessHead + MaxBatch*wireRecordSize

	wireFlagRegen        = 1 << 0
	wireFlagFromSearcher = 1 << 1
	wireFlagReceipted    = 1 << 2
)

// Positions travel as int32: a valid Pos is below 2^MaxP (None is -1).
const _ = uint(31 - ocube.MaxP)

var errWireMalformed = errors.New("transport: malformed wire frame")

// appendSessFrame appends f's body to dst.
func appendSessFrame(dst []byte, f SessFrame) ([]byte, error) {
	le := binary.LittleEndian
	dst = le.AppendUint32(dst, uint32(int32(f.From)))
	dst = le.AppendUint32(dst, uint32(len(f.Batch)))
	dst = le.AppendUint64(dst, f.Boot)
	dst = le.AppendUint64(dst, f.Seq)
	dst = le.AppendUint64(dst, f.Ack)
	dst = le.AppendUint64(dst, f.ToBoot)
	dst = le.AppendUint64(dst, f.AckMask)
	return appendRecords(dst, f.Batch)
}

// readSessFrame parses one body; the result does not alias it. A From
// that is no position (it would get session state) is malformed.
func readSessFrame(body []byte) (SessFrame, error) {
	le := binary.LittleEndian
	if len(body) < wireSessHead || le.Uint32(body) >= 1<<ocube.MaxP { // a negative From too
		return SessFrame{}, errWireMalformed
	}
	f := SessFrame{
		From:    ocube.Pos(le.Uint32(body[0:])),
		Boot:    le.Uint64(body[8:]),
		Seq:     le.Uint64(body[16:]),
		Ack:     le.Uint64(body[24:]),
		ToBoot:  le.Uint64(body[32:]),
		AckMask: le.Uint64(body[40:]),
	}
	var err error
	f.Batch, err = readRecords(le.Uint32(body[4:]), body[wireSessHead:])
	if err != nil {
		return SessFrame{}, err
	}
	return f, nil
}

func appendRecords(dst []byte, batch []core.Envelope) ([]byte, error) {
	if len(batch) > MaxBatch {
		return dst, fmt.Errorf("transport: batch of %d envelopes exceeds the wire cap %d", len(batch), MaxBatch)
	}
	for _, env := range batch {
		dst = appendRecord(dst, env)
	}
	return dst, nil
}

// readRecords decodes count records that must fill rest exactly; the
// length check comes before the allocation, so a lying count costs
// nothing.
func readRecords(count uint32, rest []byte) ([]core.Envelope, error) {
	if count > MaxBatch || len(rest) != int(count)*wireRecordSize {
		return nil, errWireMalformed
	}
	if count == 0 {
		return nil, nil
	}
	batch := make([]core.Envelope, count)
	for i := range batch {
		var err error
		if batch[i], err = readRecord(rest[i*wireRecordSize:]); err != nil {
			return nil, err
		}
	}
	return batch, nil
}

func appendRecord(dst []byte, env core.Envelope) []byte {
	le := binary.LittleEndian
	m := &env.Msg
	dst = le.AppendUint64(dst, env.Instance)
	dst = le.AppendUint64(dst, m.Seq)
	dst = le.AppendUint32(dst, uint32(int32(m.From)))
	dst = le.AppendUint32(dst, uint32(int32(m.To)))
	dst = le.AppendUint32(dst, uint32(int32(m.Target)))
	dst = le.AppendUint32(dst, uint32(int32(m.Source)))
	dst = le.AppendUint32(dst, uint32(int32(m.Lender)))
	dst = le.AppendUint32(dst, m.Gen)
	dst = le.AppendUint32(dst, uint32(m.Phase))
	dst = le.AppendUint32(dst, m.Epoch)
	dst = le.AppendUint32(dst, m.Fence)
	var flags byte
	if m.Regen {
		flags |= wireFlagRegen
	}
	if m.FromSearcher {
		flags |= wireFlagFromSearcher
	}
	if m.Receipted {
		flags |= wireFlagReceipted
	}
	return append(dst, byte(m.Kind), byte(m.Status), byte(m.Reply), flags)
}

// readRecord decodes the record at the head of b (len(b) ≥
// wireRecordSize is the caller's check).
func readRecord(b []byte) (core.Envelope, error) {
	le := binary.LittleEndian
	b = b[:wireRecordSize]
	flags := b[55]
	if flags&^(wireFlagRegen|wireFlagFromSearcher|wireFlagReceipted) != 0 {
		return core.Envelope{}, errWireMalformed
	}
	return core.Envelope{
		Instance: le.Uint64(b[0:]),
		Msg: core.Message{
			Seq:          le.Uint64(b[8:]),
			From:         ocube.Pos(int32(le.Uint32(b[16:]))),
			To:           ocube.Pos(int32(le.Uint32(b[20:]))),
			Target:       ocube.Pos(int32(le.Uint32(b[24:]))),
			Source:       ocube.Pos(int32(le.Uint32(b[28:]))),
			Lender:       ocube.Pos(int32(le.Uint32(b[32:]))),
			Gen:          le.Uint32(b[36:]),
			Phase:        int32(le.Uint32(b[40:])),
			Epoch:        le.Uint32(b[44:]),
			Fence:        le.Uint32(b[48:]),
			Kind:         core.Kind(b[52]),
			Status:       core.EnquiryStatus(b[53]),
			Reply:        core.TestReply(b[54]),
			Regen:        flags&wireFlagRegen != 0,
			FromSearcher: flags&wireFlagFromSearcher != 0,
			Receipted:    flags&wireFlagReceipted != 0,
		},
	}, nil
}

// appendWireFrame appends the length prefix and f's body to dst; on
// error dst is returned unchanged.
func appendWireFrame(dst []byte, f SessFrame) ([]byte, error) {
	start := len(dst)
	out, err := appendSessFrame(append(dst, 0, 0, 0, 0), f)
	if err != nil {
		return dst, err
	}
	binary.LittleEndian.PutUint32(out[start:], uint32(len(out)-start-4))
	return out, nil
}

// wireReader reads length-prefixed bodies off one connection into a
// scratch buffer it reuses, so a steady stream allocates only what the
// decoded frames themselves hold.
type wireReader struct {
	r       *bufio.Reader
	scratch []byte
}

func newWireReader(r io.Reader) *wireReader {
	return &wireReader{r: bufio.NewReaderSize(r, 16<<10)}
}

// next returns the next body, valid until the following call. A
// declared length above wireMaxBody is an error before any byte of the
// body is read or any buffer grown.
func (w *wireReader) next() ([]byte, error) {
	var head [4]byte
	if _, err := io.ReadFull(w.r, head[:]); err != nil {
		return nil, err
	}
	n := int(binary.LittleEndian.Uint32(head[:]))
	if n > wireMaxBody {
		return nil, errWireMalformed
	}
	if cap(w.scratch) < n {
		w.scratch = make([]byte, n)
	}
	body := w.scratch[:n]
	if _, err := io.ReadFull(w.r, body); err != nil {
		return nil, err
	}
	return body, nil
}
