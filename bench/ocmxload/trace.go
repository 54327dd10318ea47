package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// span is one boundary crossing of the traced run: a named interval, the
// span that caused it, and the acquire it belongs to. Times are
// nanoseconds since the trace epoch — of wall time, or of the simulation's
// virtual clock where Clock says so. A layer's self time is its span minus
// the child spans inside it.
type span struct {
	ID      int64  `json:"id"`
	Parent  int64  `json:"parent"` // 0 for a root
	Name    string `json:"name"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
	Acquire int64  `json:"acquire,omitempty"` // root span id of the acquire
	Node    int    `json:"node"`
	Clock   string `json:"clock,omitempty"` // "virtual" for simulated time
}

// spanLog keeps the spans in memory until the run ends. It is not safe for
// concurrent use: the live taps record raw events and build spans after
// the window closes, the sim taps run on the engine's single goroutine.
type spanLog struct {
	epoch time.Time
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{epoch: time.Now()} }

// since converts a wall instant to trace nanoseconds.
func (l *spanLog) since(t time.Time) int64 { return int64(t.Sub(l.epoch)) }

// add appends a span and returns its id.
func (l *spanLog) add(s span) int64 {
	s.ID = int64(len(l.spans)) + 1
	l.spans = append(l.spans, s)
	return s.ID
}

// check verifies every span's parent is present and no span ends before it
// starts.
func (l *spanLog) check() error {
	for _, s := range l.spans {
		if s.Parent < 0 || s.Parent > int64(len(l.spans)) || s.Parent == s.ID {
			return fmt.Errorf("span %d (%s): parent %d is not in the trace", s.ID, s.Name, s.Parent)
		}
		if s.End < s.Start {
			return fmt.Errorf("span %d (%s): ends %d ns before it starts", s.ID, s.Name, s.Start-s.End)
		}
	}
	return nil
}

// write stores the spans as JSONL, one span per line.
func (l *spanLog) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range l.spans {
		if err := enc.Encode(&l.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// finish checks the trace and, when asked, writes it.
func (l *spanLog) finish(path string) error {
	if err := l.check(); err != nil {
		return err
	}
	if path == "" {
		return nil
	}
	return l.write(path)
}
