package props

import (
	"sync"
	"time"

	"repro/internal/metrics"
)

// Assertion ids of the lock property suite. Always assertions are the
// §2/§3 safety contract of the keyed lock service as seen by clients;
// the Sometimes set is fault coverage — a chaos run that never kills a
// holder or heals a partition proved nothing.
const (
	// PropMutualExclusion: no two overlapping holds of one key carry the
	// same fence. Overlapping holds with distinct fences are the
	// fenced-out class (the stale side is rejected by any fence-checking
	// resource; see DESIGN.md §12) and are counted, not failed.
	PropMutualExclusion = "lock.mutual_exclusion"
	// PropFenceMonotonic: successive ADMITTED grants of one key carry
	// strictly increasing fences. Grants the ledger refuses are the
	// stale-token class (a superseded epoch still granting during a
	// regeneration race — §5's duplicate-token residue) and are judged
	// by PropLedgerAdmit instead.
	PropFenceMonotonic = "lock.fence_monotonic"
	// PropLedgerAdmit: the shared fence-checked ledger
	// (metrics.FenceGate) and the grant stream agree — an admitted
	// grant's fence is at or above the key's admitted high-water mark,
	// and a refused grant's fence is strictly below it. This is the
	// exact sense in which a stale-token grant is harmless: every
	// fence it hands out is already refused by any fenced resource.
	PropLedgerAdmit = "lock.ledger_admit"
	// PropReclaimBounded: when a lapsed hold (holder killed or lease run
	// out) is reclaimed, the next grant lands within the configured
	// bound of the lapse (Totals.MaxLapseToGrant).
	PropReclaimBounded = "lock.reclaim_bounded"
	// PropNoStuck: no request is left pending once the run drains.
	PropNoStuck = "lock.no_stuck"
	// PropAccounted: every request ends in exactly one outcome —
	// requests == grants + aborted, grants == releases + expired +
	// lost + zombies — evaluated at Finish.
	PropAccounted = "lock.requests_accounted"
	// PropSingleToken: the end-of-run census finds at most one live
	// token per instance across the surviving nodes.
	PropSingleToken = "lock.single_token_at_rest"

	// PropKillWhileHolding: some kill hit a node that was holding a key.
	PropKillWhileHolding = "chaos.kill_while_holding"
	// PropReclaimAfterLease: some grant reclaimed a key whose previous
	// holder went silent past its lease.
	PropReclaimAfterLease = "chaos.reclaim_after_lease_lapse"
	// PropReclaimAfterKill: some grant reclaimed a key whose previous
	// holder's node was killed mid-hold.
	PropReclaimAfterKill = "chaos.reclaim_after_kill"
	// PropPartitionHeal: some grant completed after a partition healed.
	PropPartitionHeal = "chaos.partition_heal"
	// PropLeaseExpiredSurfaced: a lapsed holder's Unlock/Keepalive
	// surfaced ErrLeaseExpired to the client.
	PropLeaseExpiredSurfaced = "lock.lease_expired_surfaced"
	// PropStaleFenceRejected: a lapsed holder's fence was refused by the
	// ledger — fencing observably protected the resource.
	PropStaleFenceRejected = "lock.stale_fence_rejected"
	// PropFencedOutOverlap: two holds overlapped with distinct fences —
	// harmless to fenced resources, recorded for the E11-style split.
	PropFencedOutOverlap = "lock.fenced_out_overlap"
)

const (
	lapsedNone = iota
	lapsedKill
	lapsedLease
)

type hold struct {
	node  int
	fence uint64
}

// ask is a request that has not yet ended: node called Lock at at.
type ask struct {
	node int
	at   time.Time
}

type keyState struct {
	// id is the key's dense id in the suite's Holds, where each client is
	// in its critical section from the grant to its outcome call.
	id        int
	lastFence uint64
	// holder is the latest unreleased hold (nil once released); lapsedAt
	// and lapsedKind record when and why it stopped being live.
	holder     *hold
	lapsedAt   time.Time
	lapsedKind uint8
	// asks are the key's open requests in arrival order; a request's
	// outcome ends the node's oldest one.
	asks []ask
}

// Totals are the run counters a LockProps accumulates, exported for
// chaos reports.
type Totals struct {
	Requests, Grants, Releases, Aborted int64
	Expired, Lost, Zombies, Stuck       int64
	FencedOut                           int64
	Reclaims                            int64
	// MaxReclaim is the longest wait a reclaiming client had: from the
	// later of the lapse and its own Lock call to its grant.
	MaxReclaim time.Duration
	// MaxLapseToGrant is the longest time from a lapse to the key's next
	// admitted grant, asked for or not; PropReclaimBounded judges it.
	MaxLapseToGrant time.Duration
}

// LockProps evaluates the lock property suite against a stream of
// client-side events (request, grant, release, lapse, kill) from any
// number of goroutines. Mutual exclusion is judged by metrics.Holds, the
// accountant the simulators use, and admission by the FenceGate ledger —
// the same acceptance rule a fenced storage system applies — so
// "violation" here means exactly what PR 6's client contract promises
// never happens application-visibly.
type LockProps struct {
	c     *Collector
	gate  *metrics.FenceGate
	holds metrics.Holds // one id per key, in order of first sight

	ttl          time.Duration
	reclaimBound time.Duration

	mu          sync.Mutex
	keys        map[string]*keyState
	totals      Totals
	healPending bool
}

// NewLockProps wires the suite to a collector. ttl is the lockspace's
// lease TTL: zombie lapse instants are enter+ttl, and PropReclaimBounded
// enforces the c·TTL envelope 10·ttl+15s (with no ttl a flat 30s). Every
// assertion is declared up front so an unexercised property shows as
// unreached, not absent.
func NewLockProps(c *Collector, ttl time.Duration) *LockProps {
	reclaimBound := 30 * time.Second
	if ttl > 0 {
		reclaimBound = 10*ttl + 15*time.Second
	}
	p := &LockProps{
		c:            c,
		gate:         &metrics.FenceGate{},
		ttl:          ttl,
		reclaimBound: reclaimBound,
		keys:         make(map[string]*keyState),
	}
	for _, id := range []string{PropMutualExclusion, PropFenceMonotonic, PropLedgerAdmit,
		PropReclaimBounded, PropNoStuck, PropAccounted, PropSingleToken} {
		c.Declare(Always, id)
	}
	for _, id := range []string{PropKillWhileHolding, PropReclaimAfterLease,
		PropReclaimAfterKill, PropPartitionHeal} {
		c.Declare(Sometimes, id)
	}
	c.Declare(Reachable, PropLeaseExpiredSurfaced)
	c.Declare(Reachable, PropStaleFenceRejected)
	c.Declare(Reachable, PropFencedOutOverlap)
	return p
}

// Collector returns the backing collector.
func (p *LockProps) Collector() *Collector { return p.c }

// Totals snapshots the run counters.
func (p *LockProps) Totals() Totals {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.totals
}

func (p *LockProps) key(key string) *keyState {
	ks := p.keys[key]
	if ks == nil {
		ks = &keyState{id: len(p.keys)}
		p.keys[key] = ks
	}
	return ks
}

// OnRequest records a client issuing Lock.
func (p *LockProps) OnRequest(node int, key string) {
	now := time.Now()
	p.mu.Lock()
	defer p.mu.Unlock()
	p.totals.Requests++
	ks := p.key(key)
	ks.asks = append(ks.asks, ask{node: node, at: now})
}

// endAsk ends node's oldest open request on ks, first in, first out, and
// returns when it was made (zero when there is none).
func (ks *keyState) endAsk(node int) time.Time {
	for i, a := range ks.asks {
		if a.node == node {
			ks.asks = append(ks.asks[:i], ks.asks[i+1:]...)
			return a.at
		}
	}
	return time.Time{}
}

// OnGrant records a granted Lock and runs the safety checks: fence
// monotonicity and uniqueness, ledger admission, and — when the key's
// previous hold lapsed unreleased — the reclaim coverage and latency
// properties. It reports whether the ledger admitted the grant: a refused
// one (a superseded token's) is never the key's holder, so it cannot
// lapse into a reclaim.
func (p *LockProps) OnGrant(node int, key string, fence uint64) bool {
	now := time.Now()
	p.mu.Lock()
	defer p.mu.Unlock()
	p.totals.Grants++
	ks := p.key(key)
	asked := ks.endAsk(node)

	details := func() Details { return Details{"key": key, "fence": fence, "hwm": ks.lastFence, "node": node} }
	// Refused grants enter too: their holder is in its critical section
	// until its outcome call all the same.
	_, visible := p.holds.Enter(ks.id, fence)
	p.always(PropMutualExclusion, !visible, details)

	if !p.gate.Admit(key, fence) {
		// The live form of §5's duplicate-token residue: a superseded
		// token (an older epoch a regeneration outran) granted this hold,
		// and the shared ledger refused its fence — so no fence-checking
		// resource ever honors it. PR 6's client contract calls this
		// fenced-out: counted and observably rejected, never an
		// application-visible violation. The ledger property still binds:
		// a refused fence must be strictly stale. Holder bookkeeping stays
		// with the admitted hold.
		p.totals.FencedOut++
		p.always(PropLedgerAdmit, fence < ks.lastFence, details)
		p.c.Reachable(PropFencedOutOverlap)
		p.c.Reachable(PropStaleFenceRejected)
		return false
	}

	p.always(PropFenceMonotonic, fence > ks.lastFence, details)
	p.always(PropLedgerAdmit, fence >= ks.lastFence, details)
	if fence > ks.lastFence {
		ks.lastFence = fence
	}

	if prev := ks.holder; prev != nil {
		switch ks.lapsedKind {
		case lapsedKill, lapsedLease:
			lat := max(now.Sub(ks.lapsedAt), 0)
			p.totals.Reclaims++
			p.totals.MaxLapseToGrant = max(p.totals.MaxLapseToGrant, lat)
			from := ks.lapsedAt
			if asked.After(from) {
				from = asked
			}
			p.totals.MaxReclaim = max(p.totals.MaxReclaim, now.Sub(from))
			if ks.lapsedKind == lapsedKill {
				p.c.Sometimes(PropReclaimAfterKill, true)
			} else {
				p.c.Sometimes(PropReclaimAfterLease, true)
			}
			p.always(PropReclaimBounded, lat <= p.reclaimBound, func() Details {
				return Details{"key": key, "latency": lat, "bound": p.reclaimBound}
			})
		default:
			// A fresh grant while the previous holder is neither released
			// nor lapsed: an overlap with distinct fences — the fenced-out
			// class, harmless to the ledger, recorded but not failed.
			p.totals.FencedOut++
			p.c.Reachable(PropFencedOutOverlap)
		}
	}
	if p.healPending {
		p.healPending = false
		p.c.Sometimes(PropPartitionHeal, true)
	}
	ks.holder = &hold{node: node, fence: fence}
	ks.lapsedAt = time.Time{}
	ks.lapsedKind = lapsedNone
	return true
}

// always evaluates an Always assertion, building its details only when it
// fails.
func (p *LockProps) always(id string, ok bool, details func() Details) {
	if ok {
		p.c.Always(id, true, nil)
		return
	}
	p.c.Always(id, false, details())
}

// OnRelease records a clean Unlock of the given hold.
func (p *LockProps) OnRelease(node int, key string, fence uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.totals.Releases++
	ks := p.key(key)
	p.holds.Exit(ks.id, fence)
	if ks.holder != nil && ks.holder.fence == fence {
		ks.holder = nil
		ks.lapsedKind = lapsedNone
	}
}

// OnExpired records a client whose Unlock/Keepalive surfaced
// ErrLeaseExpired: its hold was reclaimed under it. The stale fence is
// probed against the ledger — once a newer grant has touched the key,
// the probe must be refused, which is fencing observably working.
func (p *LockProps) OnExpired(node int, key string, fence uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.totals.Expired++
	ks := p.key(key)
	p.holds.Exit(ks.id, fence)
	p.c.Reachable(PropLeaseExpiredSurfaced)
	if fence < ks.lastFence && !p.gate.Admit(key, fence) {
		p.c.Reachable(PropStaleFenceRejected)
	}
}

// OnHoldLost records a holder whose node died under it (Unlock returned
// ErrClosed); the hold itself was or will be reclaimed by the protocol.
func (p *LockProps) OnHoldLost(node int, key string, fence uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.totals.Lost++
	ks := p.key(key)
	p.holds.Exit(ks.id, fence)
	if fence < ks.lastFence && !p.gate.Admit(key, fence) {
		p.c.Reachable(PropStaleFenceRejected)
	}
}

// OnZombie records a client that deliberately goes silent while holding:
// no Unlock, no Keepalive. Its hold lapses one lease TTL after now and
// the next grant of the key is a lease reclaim.
func (p *LockProps) OnZombie(node int, key string, fence uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.totals.Zombies++
	ks := p.key(key)
	p.holds.Exit(ks.id, fence)
	if ks.holder != nil && ks.holder.fence == fence && p.ttl > 0 {
		ks.lapsedAt = time.Now().Add(p.ttl)
		ks.lapsedKind = lapsedLease
	}
}

// OnLateExpiry records a zombie's eventual Unlock surfacing
// ErrLeaseExpired. The hold's outcome was already accounted by OnZombie;
// this only witnesses the client-visible expiry and probes the ledger
// with the dead fence.
func (p *LockProps) OnLateExpiry(node int, key string, fence uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	ks := p.key(key)
	p.c.Reachable(PropLeaseExpiredSurfaced)
	if fence < ks.lastFence && !p.gate.Admit(key, fence) {
		p.c.Reachable(PropStaleFenceRejected)
	}
}

// OnAborted records a Lock that ended without a grant (cancellation, or
// ErrClosed from a killed node).
func (p *LockProps) OnAborted(node int, key string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.totals.Aborted++
	p.key(key).endAsk(node)
}

// OnStuck records a request that outlived the patience window — the
// live analogue of a non-quiescent storm, failing PropNoStuck with the
// wait attached.
func (p *LockProps) OnStuck(node int, key string, waited time.Duration) {
	p.mu.Lock()
	p.totals.Stuck++
	p.totals.Aborted++ // the stuck client gives up; account its request
	p.key(key).endAsk(node)
	p.mu.Unlock()
	p.c.Always(PropNoStuck, false, Details{"node": node, "key": key, "waited": waited})
}

// OnKilled records a node kill: every key currently held through that
// node lapses now (PropKillWhileHolding coverage) and its next grant is
// a kill reclaim.
func (p *LockProps) OnKilled(node int) {
	now := time.Now()
	p.mu.Lock()
	defer p.mu.Unlock()
	held := 0
	for _, ks := range p.keys {
		if ks.holder != nil && ks.holder.node == node && ks.lapsedKind == lapsedNone {
			ks.lapsedAt = now
			ks.lapsedKind = lapsedKill
			held++
		}
	}
	p.c.Sometimes(PropKillWhileHolding, held > 0)
}

// OnHealed records a partition heal; the next grant anywhere witnesses
// PropPartitionHeal (traffic flowed again after the cut).
func (p *LockProps) OnHealed() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.healPending = true
}

// Finish runs the end-of-run checks: the request/outcome accounting
// identity, the drained-run stuck check, and the token census (tokens
// per instance summed over surviving nodes, at most one each).
func (p *LockProps) Finish(drained bool, census map[uint64]int) {
	p.mu.Lock()
	t := p.totals
	p.mu.Unlock()
	outstanding := t.Requests - t.Grants - t.Aborted
	p.c.Always(PropNoStuck, drained && outstanding == 0,
		Details{"drained": drained, "outstanding": outstanding})
	outcomes := t.Releases + t.Expired + t.Lost + t.Zombies
	p.c.Always(PropAccounted, outstanding == 0 && t.Grants == outcomes,
		Details{"requests": t.Requests, "grants": t.Grants, "aborted": t.Aborted, "outcomes": outcomes})
	for inst, tokens := range census {
		p.c.Always(PropSingleToken, tokens <= 1, Details{"instance": inst, "tokens": tokens})
	}
	if len(census) > 0 {
		p.c.Always(PropSingleToken, true, nil) // census ran and was clean
	}
}
