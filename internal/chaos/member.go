package chaos

import (
	"time"

	"repro/internal/core"
	"repro/internal/lockspace"
	"repro/internal/ocube"
	"repro/internal/transport"
	"sync"
)

// member is one cluster node's lifecycle: a reliable session over the
// shared mesh plus a lockspace on top, killable and restartable. The
// kill is the in-process SIGKILL — the lockspace and session are torn
// down with no goodbye traffic; only the MemStable survives, which is
// precisely the Section 5 stable-storage contract. Every restart bumps
// the session boot (so peers reset their dedup windows instead of
// discarding the reincarnation's frames) and rejoins via recovery (so
// the reincarnation never trusts cluster-birth initial conditions).
type member struct {
	d      *driver
	pos    ocube.Pos
	stable *lockspace.MemStable

	mu    sync.Mutex
	boot  uint64
	sess  *transport.Session
	space *lockspace.Lockspace
	alive bool
	// prev accumulates the session counters of dead incarnations, so the
	// scrape-time metric funcs stay monotone across kills and restarts.
	prev transport.SessionStats
}

func newMember(d *driver, pos int) *member {
	return &member{d: d, pos: ocube.Pos(pos), stable: lockspace.NewMemStable()}
}

// get returns the current lockspace and whether the member is alive.
// Callers race with kills by design: a space obtained here may be
// closed by the time it is used, and every call on it then returns
// ErrClosed — the client loops route that to OnAborted.
func (m *member) get() (*lockspace.Lockspace, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.space, m.alive
}

// start brings the member up. rejoin must be false only at cluster
// birth; every later incarnation recovers.
func (m *member) start(rejoin bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.alive {
		return
	}
	m.boot++
	cfg := m.d.cfg
	node := core.Config{
		Self:           m.pos,
		P:              cfg.P,
		FT:             true,
		EpochFence:     true,
		Delta:          40 * time.Millisecond,
		CSEstimate:     40 * time.Millisecond,
		SuspicionSlack: 100 * time.Millisecond,
	}
	sess := transport.NewSession(m.pos, m.d.mesh.Endpoint(m.pos), transport.SessionConfig{
		Window: 64,
		RTO:    30 * time.Millisecond,
		Boot:   m.boot,
	}.Fit(node))
	space, err := lockspace.New(lockspace.Config{
		Node:      node,
		Transport: sess,
		LeaseTTL:  cfg.LeaseTTL,
		Rejoin:    rejoin,
		Stable:    m.stable,
		Metrics:   cfg.Metrics,
		Flight:    cfg.Flight,
	})
	if err != nil {
		// The template is static and validated by every test; a failure
		// here is a programming error, not a chaos outcome.
		panic("chaos: member start: " + err.Error())
	}
	m.sess = sess
	m.space = space
	m.alive = true
}

// restart resurrects a killed member (no-op if alive).
func (m *member) restart() {
	m.start(true)
}

// kill tears the member down with no goodbye: in-flight holds, waiters,
// and unacked frames all die with it. Client calls racing the kill get
// ErrClosed. No-op if already dead.
func (m *member) kill() {
	m.mu.Lock()
	if !m.alive {
		m.mu.Unlock()
		return
	}
	m.alive = false
	space, sess := m.space, m.sess
	m.prev = m.prev.Add(sess.Stats())
	m.mu.Unlock()
	space.Close()
	sess.Close()
}

// sessionStats returns the member's cumulative session counters across
// every incarnation: dead boots' totals plus the live session's. The
// result only ever grows, which is what lets the /metrics scrape expose
// it as counters.
func (m *member) sessionStats() transport.SessionStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.alive {
		return m.prev.Add(m.sess.Stats())
	}
	return m.prev
}
