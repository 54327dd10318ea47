package chaos

import (
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/lockspace"
	"repro/internal/ocube"
	"repro/internal/transport"
)

// member is one cluster node's lifecycle: a lockspace started over the
// shared mesh, killable and restartable. The kill is the in-process
// SIGKILL — the lockspace and its session are torn down with no goodbye
// traffic; only the MemStable survives, which is precisely the Section 5
// stable-storage contract. lockspace.Start reads the node's life record
// from it, so every restart comes back with a higher session boot (peers
// reset their dedup windows instead of discarding the reincarnation's
// frames) and rejoins via recovery (the reincarnation never trusts
// cluster-birth initial conditions). Its session counters restart with
// it, as a process's do.
type member struct {
	d      *driver
	pos    ocube.Pos
	stable *lockspace.MemStable

	mu    sync.Mutex
	space *lockspace.Lockspace
	alive bool
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

// start brings the member up, at cluster birth or after a kill (no-op if
// alive).
func (m *member) start() {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.alive {
		return
	}
	cfg := m.d.cfg
	space, err := lockspace.Start(m.d.mesh.Endpoint(m.pos), transport.SessionConfig{
		RTO: 30 * time.Millisecond,
	}, lockspace.Config{
		Node: core.Config{
			Self: m.pos, P: cfg.P, FT: true, EpochFence: true,
			Delta: 40 * time.Millisecond, CSEstimate: 40 * time.Millisecond,
			SuspicionSlack: 100 * time.Millisecond,
		},
		LeaseTTL: cfg.LeaseTTL,
		Stable:   m.stable,
		Metrics:  cfg.Metrics,
		Flight:   m.d.flight,
	})
	if err != nil {
		// The template is static and validated by every test; a failure
		// here is a programming error, not a chaos outcome.
		panic("chaos: member start: " + err.Error())
	}
	m.space = space
	m.alive = true
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
	space := m.space
	m.mu.Unlock()
	space.Close()
}
