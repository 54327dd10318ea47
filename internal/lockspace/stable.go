package lockspace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"

	"repro/internal/core"
)

// StableState is one instance's Section 5 stable storage, core.Stable:
// its JSON fields are the stable log's record.
type StableState = core.Stable

// StableStore persists per-instance StableState across node restarts.
// Save is called inside the step that changed the state, with the node's
// mutex held (seq bumps on each request), so implementations should be
// cheap and must not call back into the node; Load is called once per
// instance at first touch, likewise. A Save that fails fail-stops the
// node before the step sends anything: it would otherwise promise what
// its next life cannot remember.
type StableStore interface {
	Load(inst uint64) (StableState, bool)
	Save(inst uint64, s StableState) error
}

// MemStable is an in-memory StableStore: it survives a Lockspace being
// closed and rebuilt (the in-process chaos driver's kill/restart) but
// not the process. Concurrency-safe; the zero value is NOT ready — use
// NewMemStable.
type MemStable struct {
	mu sync.Mutex
	m  map[uint64]StableState
}

// NewMemStable builds an empty in-memory stable store.
func NewMemStable() *MemStable {
	return &MemStable{m: make(map[uint64]StableState)}
}

// Load implements StableStore.
func (s *MemStable) Load(inst uint64) (StableState, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, ok := s.m[inst]
	return st, ok
}

// Save implements StableStore; it cannot fail.
func (s *MemStable) Save(inst uint64, st StableState) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.m[inst] = st
	return nil
}

// FileStable is a StableStore on an append-only JSONL log, written for
// node processes that die by SIGKILL. Each Save appends one record with a
// single write(2) and no fsync; OpenFileStable replays the log with
// last-record-wins and silently discards a torn final line. A live node
// saves a step's changes before it sends anything of the step (DESIGN.md
// §16), so a record torn by a kill belongs to a step whose sends never
// left: the reborn node resumes as if it had crashed a moment earlier.
// A record the write returned from is in the kernel's page cache, not on
// disk: a kernel crash or power loss can drop a tail of records whose
// sends already left, which is outside the fail-stop model.
type FileStable struct {
	mu sync.Mutex
	m  map[uint64]StableState
	f  *os.File
}

type fileStableRec struct {
	Inst uint64 `json:"inst"`
	StableState
}

// OpenFileStable opens (creating if needed) the stable log at path and
// replays it.
func OpenFileStable(path string) (*FileStable, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("lockspace: stable log: %w", err)
	}
	s := &FileStable{m: make(map[uint64]StableState), f: f}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		var rec fileStableRec
		if json.Unmarshal(sc.Bytes(), &rec) != nil {
			continue // torn tail of a killed writer
		}
		s.m[rec.Inst] = rec.StableState
	}
	if err := sc.Err(); err != nil {
		f.Close()
		return nil, fmt.Errorf("lockspace: stable log replay: %w", err)
	}
	// A torn tail has no newline; terminate it so the next append starts
	// a fresh line instead of gluing onto the garbage — and fail the open
	// if that cannot be done, or the next record would be lost with it.
	if info, err := f.Stat(); err == nil && info.Size() > 0 {
		tail := make([]byte, 1)
		if _, err := f.ReadAt(tail, info.Size()-1); err == nil && tail[0] != '\n' {
			if _, err := f.Write([]byte("\n")); err != nil {
				f.Close()
				return nil, fmt.Errorf("lockspace: stable log: terminating torn tail: %w", err)
			}
		}
	}
	return s, nil
}

// Load implements StableStore.
func (s *FileStable) Load(inst uint64) (StableState, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, ok := s.m[inst]
	return st, ok
}

// Save implements StableStore: it reports the append's write error.
func (s *FileStable) Save(inst uint64, st StableState) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.m[inst] = st
	b, err := json.Marshal(fileStableRec{Inst: inst, StableState: st})
	if err == nil {
		_, err = s.f.Write(append(b, '\n'))
	}
	if err != nil {
		return fmt.Errorf("lockspace: stable log: %w", err)
	}
	return nil
}

// Close closes the log file.
func (s *FileStable) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.f.Close()
}
