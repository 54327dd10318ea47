package lockspace

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"maps"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/ocube"
)

// FuzzStableDecode holds the stable log's replay to its contract over
// arbitrary bytes with lines under the 1 MiB the scanner allows: opening
// never panics, the loaded state is last-record-wins over the lines that
// decode, and a Save after the open survives a reopen — the torn tail is
// terminated, so the new record does not glue onto it.
func FuzzStableDecode(f *testing.F) {
	f.Add([]byte(""))
	f.Add([]byte(`{"inst":7,"seq":1,"epoch":0,"repair_gen":1}` + "\n"))
	f.Add([]byte(`{"inst":7,"seq":1}` + "\n" + `{"inst":9,"seq":5,"epoch":2}` + "\n" + `{"inst":7,"seq":4}` + "\n"))
	f.Add([]byte(`{"inst":1,"seq":10}` + "\n" + `{"inst":2,"seq":99`))
	f.Add([]byte(`{"inst":3,"seq":2}`)) // intact, but no newline
	f.Add([]byte(`{"inst":3,"seq":2}` + "\r\n" + `{"inst":4,"seq":"x"}` + "\n\n" + `garbage`))
	f.Fuzz(func(t *testing.T, log []byte) {
		lines := bytes.Split(log, []byte("\n"))
		want := make(map[uint64]StableState)
		for _, line := range lines {
			if len(line) >= 1<<20 {
				t.Skip("a line the scanner refuses")
			}
			var rec fileStableRec
			if json.Unmarshal(line, &rec) == nil {
				want[rec.Inst] = rec.StableState
			}
		}
		path := filepath.Join(t.TempDir(), "stable.jsonl")
		if err := os.WriteFile(path, log, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := OpenFileStable(path)
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		if !maps.Equal(s.m, want) {
			s.Close()
			t.Fatalf("loaded %v, want last-record-wins %v", s.m, want)
		}
		// Any instance will do: a record glued onto a torn tail is lost,
		// whether it was new or superseded one the log holds.
		inst := uint64(len(log))
		st := StableState{Seq: 42, Epoch: 3, RepairGen: 1}
		s.Save(inst, st)
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		s2, err := OpenFileStable(path)
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		defer s2.Close()
		want[inst] = st
		if !maps.Equal(s2.m, want) {
			t.Fatalf("after a Save and a reopen: loaded %v, want %v", s2.m, want)
		}
	})
}

// TestFileStableRoundTrip checks the append-only stable log survives a
// close-and-reopen with last-record-wins semantics.
func TestFileStableRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "stable.jsonl")
	s, err := OpenFileStable(path)
	if err != nil {
		t.Fatal(err)
	}
	s.Save(7, StableState{Seq: 1, Epoch: 0, RepairGen: 1})
	s.Save(9, StableState{Seq: 5, Epoch: 2, RepairGen: 3})
	s.Save(7, StableState{Seq: 4, Epoch: 1, RepairGen: 2}) // supersedes
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := OpenFileStable(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	got, ok := s2.Load(7)
	if !ok || got != (StableState{Seq: 4, Epoch: 1, RepairGen: 2}) {
		t.Fatalf("Load(7) = %+v %v, want the last record", got, ok)
	}
	if got, ok := s2.Load(9); !ok || got.Seq != 5 {
		t.Fatalf("Load(9) = %+v %v", got, ok)
	}
	if _, ok := s2.Load(8); ok {
		t.Fatal("Load(8) found a record never saved")
	}
}

// TestFileStableTornTail checks a SIGKILL mid-append (a torn final
// line) costs only that record: replay keeps everything before it.
func TestFileStableTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "stable.jsonl")
	s, err := OpenFileStable(path)
	if err != nil {
		t.Fatal(err)
	}
	s.Save(1, StableState{Seq: 10})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"inst":2,"seq":99`); err != nil { // no newline, no close brace
		t.Fatal(err)
	}
	f.Close()

	s2, err := OpenFileStable(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got, ok := s2.Load(1); !ok || got.Seq != 10 {
		t.Fatalf("intact record lost to the torn tail: %+v %v", got, ok)
	}
	if _, ok := s2.Load(2); ok {
		t.Fatal("torn record must not replay")
	}
	// And the store still appends cleanly after the torn tail.
	s2.Save(3, StableState{Seq: 7})
	s2.Close()
	s3, err := OpenFileStable(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	if got, ok := s3.Load(3); !ok || got.Seq != 7 {
		t.Fatalf("post-tear append lost: %+v %v", got, ok)
	}
}

// TestFailedSaveFailStopsNode: a rejoining node whose stable log can no
// longer be written sends nothing of the step that needed the write — it
// would promise what its next life cannot remember — and fail-stops: that
// Lock and every later call return ErrClosed. While the log is writable
// the same first touch does send, so the silence is the failed write's.
func TestFailedSaveFailStopsNode(t *testing.T) {
	fs, err := OpenFileStable(filepath.Join(t.TempDir(), "stable.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	var sends atomic.Int64
	tr := &stepTransport{
		in:     make(chan []core.Envelope),
		onSend: func(ocube.Pos, []core.Envelope) { sends.Add(1) },
	}
	ls, err := New(Config{
		// Protocol deadlines far out: only the test's calls step the node.
		Node: core.Config{
			Self: 1, P: 1, FT: true,
			Delta: 10 * time.Second, CSEstimate: 10 * time.Second,
		},
		Transport: tr,
		Rejoin:    true,
		Stable:    fs,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ls.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := ls.Lock(ctx, "written"); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Lock with the token at node 0 and no answer = %v, want the deadline", err)
	}
	if sends.Load() == 0 {
		t.Fatal("a first touch with a writable log sent nothing")
	}

	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}
	before := sends.Load()
	ctx, cancel = context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := ls.Lock(ctx, "unwritten"); !errors.Is(err, ErrClosed) {
		t.Fatalf("Lock whose stable write failed = %v, want ErrClosed", err)
	}
	if n := sends.Load() - before; n != 0 {
		t.Fatalf("%d SendBatch calls followed a failed stable write, want none", n)
	}
	if _, err := ls.Lock(ctx, "written"); !errors.Is(err, ErrClosed) {
		t.Fatalf("Lock after the node fail-stopped = %v, want ErrClosed", err)
	}
	if err := ls.Unlock("written", 0); !errors.Is(err, ErrClosed) {
		t.Fatalf("Unlock after the node fail-stopped = %v, want ErrClosed", err)
	}
}
