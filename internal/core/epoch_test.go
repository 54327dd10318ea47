package core

import (
	"testing"

	"repro/internal/ocube"
)

// Token-epoch regression tests: a regeneration stamps its replacement
// with a fresh epoch, and a survivor of the replaced generation showing
// up afterwards is reported as a stale sighting (TokenEvStale) —
// "regeneration raced a live token" — instead of blending in with genuine
// traffic.

// loseTransferAndRegenerate drives the 2-node root through an outright
// token transfer whose acknowledgment never arrives, so the transfer-ack
// watchdog concludes the token died with its recipient and regenerates.
// It returns the root and what it reported.
func loseTransferAndRegenerate(t *testing.T) (*Node, *reports) {
	t.Helper()
	n := ftNode(t, 0, 1)
	rep := watch(n)
	effs := n.HandleMessage(Message{Kind: KindRequest, From: 1, To: 0, Target: 1, Source: 1, Seq: seqStride})
	toks := sends(effs)
	if len(toks) != 1 || toks[0].Kind != KindToken || toks[0].Lender != ocube.None {
		t.Fatalf("root response = %v, want one outright token transfer", toks)
	}
	if toks[0].Epoch != 0 {
		t.Fatalf("pristine token carries epoch %d, want 0", toks[0].Epoch)
	}
	var ack *StartTimer
	for _, ti := range timers(effs) {
		if ti.Kind == TimerTransferAck {
			ti := ti
			ack = &ti
		}
	}
	if ack == nil {
		t.Fatal("no transfer-ack watchdog armed")
	}
	n.HandleTimer(TimerTransferAck, ack.Gen)
	return n, rep
}

func TestRegenerationStampsEpoch(t *testing.T) {
	n, rep := loseTransferAndRegenerate(t)
	rg := rep.take().of(TokenEvRegenerated)
	if len(rg) != 1 || n.Host().Regenerations() != 1 {
		t.Fatalf("regenerations = %+v, want exactly one", rg)
	}
	// Node 0 in a P=1 cube mints in the ≡0 (mod 2) residue class, so its
	// first regeneration stamps epoch 2 — node-unique minting (see
	// bumpEpoch) keeps concurrent regenerations from colliding.
	if rg[0].Epoch != 2 {
		t.Errorf("regenerated epoch = %d, want 2", rg[0].Epoch)
	}
	if n.Epoch() != 2 {
		t.Errorf("node epoch = %d, want 2", n.Epoch())
	}
	if !n.TokenHere() {
		t.Error("regenerating guardian must hold the replacement token")
	}
}

func TestStaleTokenSightingAfterRacedRegeneration(t *testing.T) {
	n, rep := loseTransferAndRegenerate(t)
	rep.take()
	// The transfer was not actually lost: the recipient was alive, only
	// its acknowledgment vanished. The epoch-0 token eventually comes
	// back — a survivor of the replaced generation.
	n.HandleMessage(Message{Kind: KindToken, From: 1, To: 0,
		Lender: ocube.None, Source: 1, Seq: seqStride, Epoch: 0})
	st := rep.take().of(TokenEvStale)
	if len(st) != 1 || n.Host().StaleTokens() != 1 {
		t.Fatalf("stale sightings = %+v (host count %d), want exactly one", st, n.Host().StaleTokens())
	}
	if st[0].Epoch != 0 || st[0].Peer != 1 || n.Epoch() != 2 {
		t.Errorf("sighting = epoch %d from %v, node epoch %d; want 0, from 1, 2", st[0].Epoch, st[0].Peer, n.Epoch())
	}
	// Pure observability: the message is still handled exactly as before.
	if !n.TokenHere() {
		t.Error("node must keep holding a token after the sighting")
	}
	// A token of the current generation is not a sighting.
	n.HandleMessage(Message{Kind: KindToken, From: 1, To: 0,
		Lender: ocube.None, Source: 1, Seq: seqStride, Epoch: n.Epoch()})
	if got := rep.take().of(TokenEvStale); len(got) != 0 {
		t.Errorf("current-epoch token reported stale: %+v", got)
	}
}

func TestCleanExchangeLeavesEpochsAtZero(t *testing.T) {
	// A failure-free lend/return cycle never regenerates, so every token
	// message carries epoch 0 and no sighting fires.
	root := ftNode(t, 0, 2)
	rep := watch(root)
	effs := root.HandleMessage(Message{Kind: KindRequest, From: 1, To: 0, Target: 1, Source: 1, Seq: seqStride})
	toks := sends(effs)
	if len(toks) != 1 || toks[0].Kind != KindToken || toks[0].Lender != 0 {
		t.Fatalf("root response = %v, want one loan", toks)
	}
	if toks[0].Epoch != 0 {
		t.Errorf("loaned token epoch = %d, want 0", toks[0].Epoch)
	}
	root.HandleMessage(Message{Kind: KindToken, From: 1, To: 0,
		Lender: ocube.None, Source: 1, Seq: seqStride, Epoch: 0})
	if st := rep.take().of(TokenEvStale); len(st) != 0 {
		t.Errorf("clean return reported stale sightings: %+v", st)
	}
	if root.Epoch() != 0 {
		t.Errorf("epoch drifted to %d in a failure-free run", root.Epoch())
	}
}
