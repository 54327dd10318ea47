package metrics

import "testing"

// holdOp is one step of a Holds script: an Enter, with the verdict it
// must return, or an Exit.
type holdOp struct {
	exit             bool
	id               int
	fence            uint64
	overlap, visible bool
}

func enter(id int, fence uint64, overlap, visible bool) holdOp {
	return holdOp{id: id, fence: fence, overlap: overlap, visible: visible}
}

func exit(id int, fence uint64) holdOp { return holdOp{exit: true, id: id, fence: fence} }

func TestHolds(t *testing.T) {
	for _, c := range []struct {
		name                     string
		ops                      []holdOp
		overlaps, fenced, visibl int64
	}{
		{
			name: "disjoint holds never overlap",
			ops: []holdOp{
				enter(0, 1, false, false), exit(0, 1),
				enter(0, 2, false, false), exit(0, 2),
				enter(0, 2, false, false), exit(0, 2),
			},
		},
		{
			name: "distinct-fence overlap is fenced",
			ops: []holdOp{
				enter(0, 1, false, false), enter(0, 1<<32|1, true, false),
				exit(0, 1), exit(0, 1<<32|1),
				enter(0, 3, false, false),
			},
			overlaps: 1, fenced: 1,
		},
		{
			name: "equal-fence overlap is visible",
			ops: []holdOp{
				enter(3, 7, false, false), enter(3, 7, true, true),
				exit(3, 7), exit(3, 7),
				enter(3, 8, false, false),
			},
			overlaps: 1, visibl: 1,
		},
		{
			name: "fence 0, the baselines' fence, overlaps visibly",
			ops: []holdOp{
				enter(0, 0, false, false), enter(0, 0, true, true),
				exit(0, 0), enter(0, 0, true, true),
			},
			overlaps: 2, visibl: 2,
		},
		{
			name: "a third hold over two",
			ops: []holdOp{
				enter(1, 1, false, false), enter(1, 2, true, false),
				enter(1, 3, true, false), // distinct from both live fences
				enter(1, 2, true, true),  // equal to the second, not the first
				exit(1, 1), exit(1, 2), exit(1, 3), exit(1, 2),
				enter(1, 9, false, false),
			},
			overlaps: 3, fenced: 2, visibl: 1,
		},
		{
			name: "exit of an absent fence is a no-op",
			ops: []holdOp{
				exit(0, 5), exit(4, 5), // nothing ever entered
				enter(0, 5, false, false),
				exit(0, 6), // live id, other fence
				enter(0, 6, true, false),
				exit(0, 5), exit(0, 5), // the second is absent
				enter(0, 7, true, false), // 6 is still live
			},
			overlaps: 2, fenced: 2,
		},
		{
			name: "exits out of order",
			ops: []holdOp{
				enter(2, 1, false, false), enter(2, 2, true, false), enter(2, 3, true, false),
				exit(2, 2),               // the middle one first
				enter(2, 2, true, false), // 1 and 3 are live, 2 is not
				exit(2, 1),               // the slot's hold: a later one takes its place
				enter(2, 3, true, true),
				exit(2, 3), exit(2, 3), exit(2, 2),
				enter(2, 1, false, false),
			},
			overlaps: 4, fenced: 3, visibl: 1,
		},
		{
			name: "ids far apart are independent",
			ops: []holdOp{
				enter(100000, 4, false, false), enter(0, 4, false, false),
				enter(100000, 4, true, true), enter(99999, 4, false, false),
				enter(0, 5, true, false),
				exit(100000, 4), exit(0, 4),
				enter(100000, 4, true, true), enter(0, 4, true, false),
			},
			overlaps: 4, fenced: 2, visibl: 2,
		},
	} {
		t.Run(c.name, func(t *testing.T) {
			var h Holds
			var grants int64
			for i, op := range c.ops {
				if op.exit {
					h.Exit(op.id, op.fence)
					continue
				}
				grants++
				overlap, visible := h.Enter(op.id, op.fence)
				if overlap != op.overlap || visible != op.visible {
					t.Fatalf("op %d Enter(%d, %d) = (%v, %v), want (%v, %v)",
						i, op.id, op.fence, overlap, visible, op.overlap, op.visible)
				}
			}
			if h.Grants() != grants || h.Overlaps() != c.overlaps || h.Fenced() != c.fenced || h.Visible() != c.visibl {
				t.Fatalf("grants/overlaps/fenced/visible = %d/%d/%d/%d, want %d/%d/%d/%d",
					h.Grants(), h.Overlaps(), h.Fenced(), h.Visible(), grants, c.overlaps, c.fenced, c.visibl)
			}
			if h.Overlaps() != h.Fenced()+h.Visible() {
				t.Fatal("every overlap is fenced or visible")
			}
		})
	}
}

// TestHoldsAllocationFree pins the simulator's hot path: once an id's
// slot exists, holds that never overlap allocate nothing.
func TestHoldsAllocationFree(t *testing.T) {
	var h Holds
	h.Enter(7, 1)
	h.Exit(7, 1)
	fence := uint64(1)
	if allocs := testing.AllocsPerRun(1000, func() {
		fence++
		h.Enter(int(fence%8), fence)
		h.Exit(int(fence%8), fence)
	}); allocs != 0 {
		t.Fatalf("%v allocs per non-overlapping hold, want 0", allocs)
	}
}
