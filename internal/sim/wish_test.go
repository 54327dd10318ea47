package sim

import (
	"math"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/ocube"
)

// wishLog is a keyed position that records the wishes it is handed and
// does nothing else.
type wishLog struct {
	t     *testing.T
	self  ocube.Pos
	got   []uint64
	stray bool // shared by every position no row names: a wish here is misrouted
}

func (k *wishLog) Wish(_ time.Duration, inst uint64) error {
	if k.stray {
		k.t.Errorf("wish for instance %d reached a position no row names", inst)
	}
	k.got = append(k.got, inst)
	return nil
}

func (*wishLog) Envelope(time.Duration, core.Envelope) {}
func (*wishLog) Tick(time.Duration)                    {}
func (*wishLog) Crash()                                {}
func (*wishLog) Recover(time.Duration)                 {}
func (*wishLog) Outbox() []core.Envelope               { return nil }
func (*wishLog) Aim() (time.Duration, bool)            { return 0, false }
func (*wishLog) Busy() bool                            { return false }

// TestWishCarriesPositionAndInstance: a wish event holds its position in
// the heap entry's three spare bytes and its instance in ref, so every
// position of the largest network and every instance up to math.MaxInt32
// reach Keyed.Wish intact — the bytes of each are exercised separately —
// and an instance the entry cannot carry panics at the call.
func TestWishCarriesPositionAndInstance(t *testing.T) {
	const n = 1 << 20
	rows := []struct {
		x    ocube.Pos
		inst uint64
	}{
		{0, 1},
		{1, 2},
		{0xff, 0x100},
		{0x100, 0xffff},
		{0xffff, 0x10000},
		{0x10000, 0x1000000},
		{0xabcde, 0x7f000000},
		{n - 1, math.MaxInt32},
	}
	stray := &wishLog{t: t, stray: true}
	logs := make(map[ocube.Pos]*wishLog, len(rows))
	for _, r := range rows {
		logs[r.x] = &wishLog{t: t, self: r.x}
	}
	w, err := NewKeyed(Config{P: 20}, func(x ocube.Pos) (Keyed, error) {
		if k, ok := logs[x]; ok {
			return k, nil
		}
		return stray, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range rows {
		w.RequestInstanceCS(r.x, r.inst, time.Duration(i))
	}
	for _, inst := range []uint64{core.NoInstance, math.MaxInt32 + 1, math.MaxUint64} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("RequestInstanceCS accepted instance %d", inst)
				}
			}()
			w.RequestInstanceCS(n-1, inst, 0)
		}()
	}
	if !w.RunUntilQuiescent(time.Second) {
		t.Fatal("no quiescence")
	}
	for _, r := range rows {
		if got := logs[r.x].got; len(got) != 1 || got[0] != r.inst {
			t.Errorf("position %#x: wishes %v, want [%d]", int(r.x), got, r.inst)
		}
	}
}
