package core

import (
	"testing"

	"repro/internal/ocube"
)

// Fencing-token regression tests: every grant carries a fence composed as
// (tokenEpoch<<32 | grant counter), strictly increasing across the grants
// of one token lineage, with a regenerated token's fences outranking every
// fence of the copy it replaced. The counter travels with the token on
// KindToken messages, so grants issued by different nodes still count up.

func grantsOf(effs []Effect) []Grant {
	var out []Grant
	for _, e := range effs {
		if g, ok := e.(*Grant); ok {
			out = append(out, *g)
		}
	}
	return out
}

func TestFencesStrictlyIncreaseAcrossGrants(t *testing.T) {
	n := newTestNode(t, 0, 1)
	var fences []uint64
	for i := 0; i < 3; i++ {
		effs, err := n.RequestCS()
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		gs := grantsOf(effs)
		if len(gs) != 1 {
			t.Fatalf("request %d: grants = %+v, want one", i, gs)
		}
		fences = append(fences, gs[0].Fence)
		if _, err := n.ReleaseCS(); err != nil {
			t.Fatalf("release %d: %v", i, err)
		}
	}
	for i, f := range fences {
		if want := uint64(i + 1); f != want {
			t.Errorf("grant %d fence = %d, want %d (epoch 0, counter from 1)", i, f, want)
		}
	}
}

// TestFenceTravelsWithToken checks that a loan carries the grant counter
// on the wire and the borrower continues the count instead of restarting
// it: the borrower's own grant must outrank every grant the lender issued.
func TestFenceTravelsWithToken(t *testing.T) {
	root := newTestNode(t, 0, 1)
	// The root enters and exits once, consuming fence 1.
	if _, err := root.RequestCS(); err != nil {
		t.Fatal(err)
	}
	if _, err := root.ReleaseCS(); err != nil {
		t.Fatal(err)
	}
	// Node 1 requests; the root's outright transfer must say Fence: 1.
	effs := root.HandleMessage(Message{Kind: KindRequest, From: 1, To: 0,
		Target: 1, Source: 1, Seq: seqStride})
	toks := sends(effs)
	if len(toks) != 1 || toks[0].Kind != KindToken {
		t.Fatalf("root response = %v, want one token transfer", toks)
	}
	if toks[0].Fence != 1 {
		t.Errorf("transferred token fence counter = %d, want 1", toks[0].Fence)
	}
	// The borrower adopts the counter; its grant is fence 2.
	peer := newTestNode(t, 1, 1)
	if _, err := peer.RequestCS(); err != nil {
		t.Fatal(err)
	}
	effs = peer.HandleMessage(toks[0])
	gs := grantsOf(effs)
	if len(gs) != 1 {
		t.Fatalf("borrower grants = %+v, want one", gs)
	}
	if gs[0].Fence != 2 {
		t.Errorf("borrower fence = %d, want 2 (continues the lender's count)", gs[0].Fence)
	}
}

// TestRegeneratedTokenOutranksReplacedCopy is the property the E11 gate
// leans on: after a regeneration the counter resets but the epoch (the
// high 32 bits) bumps, so every grant of the replacement token compares
// greater than every grant of the copy it replaced — and two concurrently
// live tokens can never issue equal fences.
func TestRegeneratedTokenOutranksReplacedCopy(t *testing.T) {
	n, _ := loseTransferAndRegenerate(t)
	effs, err := n.RequestCS()
	if err != nil {
		t.Fatal(err)
	}
	gs := grantsOf(effs)
	if len(gs) != 1 {
		t.Fatalf("grants = %+v, want one", gs)
	}
	// Node 0 in a P=1 cube mints epoch 2, the first epoch above 0 in its
	// residue class (node-unique minting, see bumpEpoch).
	want := uint64(2)<<32 | 1
	if gs[0].Fence != want {
		t.Errorf("post-regeneration fence = %#x, want %#x (epoch 2, counter 1)", gs[0].Fence, want)
	}
	// Strictly above anything epoch 0 could ever have issued.
	if gs[0].Fence <= uint64(^uint32(0)) {
		t.Error("regenerated fence does not outrank replaced-epoch fences")
	}
}

// TestRecoverResetsFenceCounter: a crashed node forgets its counter with
// its token; the counter state is reconstructed from the next KindToken
// message it receives (or from zero under a fresh epoch if it regenerates).
func TestRecoverResetsFenceCounter(t *testing.T) {
	n := ftNode(t, 0, 1)
	if _, err := n.RequestCS(); err != nil {
		t.Fatal(err)
	}
	if _, err := n.ReleaseCS(); err != nil {
		t.Fatal(err)
	}
	if n.fenceCtr != 1 {
		t.Fatalf("fenceCtr = %d before crash, want 1", n.fenceCtr)
	}
	n.Recover()
	if n.fenceCtr != 0 {
		t.Errorf("fenceCtr = %d after recovery, want 0", n.fenceCtr)
	}
	// Adoption from the wire: a token stamped with counter 7 restores it.
	n.HandleMessage(Message{Kind: KindToken, From: 1, To: 0, Lender: ocube.None,
		Source: 1, Seq: seqStride, Epoch: 0, Fence: 7})
	if n.fenceCtr != 7 {
		t.Errorf("fenceCtr = %d after adopting token, want 7", n.fenceCtr)
	}
}
