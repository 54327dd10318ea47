package metrics

import "sync"

// FenceGate is the acceptance rule of a fence-checking resource: it
// admits an access only while its fence is at least the highest fence
// ever admitted, per key. Grants of one token lineage carry strictly
// increasing fences and regenerated tokens outrank the copies they
// replace (core.Grant.Fence), so after the holder of a newer grant
// touches the resource, every access under an older grant — a lease that
// lapsed, a token that survived its own regeneration — is rejected. The
// gate is what turns a "fenced-out" violation (distinct fences) into a
// non-event for the application; opencubemx.FencedResource wraps it for
// client use, and props.LockProps judges every live grant by it. E11's
// "fenced" column counts no verdict of its own: Holds classifies each
// overlap by the rule this gate enforces.
//
// The zero value is ready to use; it is safe for concurrent access.
type FenceGate struct {
	mu    sync.Mutex
	high  map[string]uint64
	stale int64
}

// Admit reports whether an access to key under fence is current, raising
// the key's high-water mark when it is. A zero fence is never admitted:
// fences start at 1 (epoch 0, first grant), so zero means unfenced.
func (g *FenceGate) Admit(key string, fence uint64) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	if fence == 0 || fence < g.high[key] {
		g.stale++
		return false
	}
	if g.high == nil {
		g.high = make(map[string]uint64)
	}
	g.high[key] = fence
	return true
}

// Rejected returns how many accesses the gate refused as stale.
func (g *FenceGate) Rejected() int64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.stale
}
