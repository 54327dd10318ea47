package lockspace

import (
	"context"
	"math/rand"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/ocube"
	"repro/internal/transport"
)

// kindTap is a BatchTransport that forwards the interface's three methods
// and nothing else — whatever more its inner transport can do is hidden
// behind it, which is the benchmark's situation (bench/ocmxload wraps
// every session the same way) — and counts what SendBatch is given.
type kindTap struct {
	inner     transport.BatchTransport
	envelopes *atomic.Int64
	tokenAcks *atomic.Int64
	unlent    *atomic.Int64
}

func (k kindTap) SendBatch(to ocube.Pos, batch []core.Envelope) error {
	k.envelopes.Add(int64(len(batch)))
	for _, env := range batch {
		switch {
		case env.Msg.Kind == core.KindTokenAck:
			k.tokenAcks.Add(1)
		case transport.Receiptable(env.Msg):
			k.unlent.Add(1)
		}
	}
	return k.inner.SendBatch(to, batch)
}

func (k kindTap) RecvBatch() <-chan []core.Envelope { return k.inner.RecvBatch() }
func (k kindTap) Close() error                      { return k.inner.Close() }

// TestLiveTokenAcksLeaveTheWire is the message count of a fault-tolerant
// live cluster over sessions: two clients roam 4 000 acquires over eight
// nodes and 256 keys, so the token travels for nearly every one of them,
// and not one KindTokenAck is sent — each unlent token is acknowledged to
// its sender's node by the session's own ack (Stats().Receipts). What is
// left is request, token out, token back: about three envelopes a grant
// where the acknowledged protocol sent four.
func TestLiveTokenAcksLeaveTheWire(t *testing.T) {
	const p, clients, acquires, keys = 3, 2, 4000, 256
	sessions, _ := newSessions(t, 1<<p)
	var envelopes, tokenAcks, unlent atomic.Int64
	nodes := make([]*Lockspace, len(sessions))
	for i, sess := range sessions {
		cfg := quietFT(nil)
		cfg.Node.Self, cfg.Node.P = ocube.Pos(i), p
		cfg.Transport = kindTap{sess, &envelopes, &tokenAcks, &unlent}
		ls, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ls.Close() })
		nodes[i] = ls
	}

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(c) + 1))
			for i := 0; i < acquires/clients; i++ {
				ls, key := nodes[rng.Intn(len(nodes))], "k"+strconv.Itoa(rng.Intn(keys))
				fence, err := ls.Lock(ctx, key)
				if err == nil {
					err = ls.Unlock(key, fence)
				}
				if err != nil {
					t.Errorf("client %d, acquire %d of %s at node %d: %v", c, i, key, ls.Self(), err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	// The last receipts trail the last tokens by the sessions' ack delay,
	// and each releases a transfer guard whose watchdog would otherwise
	// sit in its node's heap for two minutes.
	receipts := func() (sum int64) {
		for _, sess := range sessions {
			sum += sess.Stats().Receipts
		}
		return sum
	}
	guarded := func() (n int) {
		for _, ls := range nodes {
			ls.mu.Lock()
			n += ls.m.Books().Pending
			ls.mu.Unlock()
		}
		return n
	}
	for deadline := time.Now().Add(5 * time.Second); (receipts() != unlent.Load() || guarded() != 0) && time.Now().Before(deadline); {
		time.Sleep(5 * time.Millisecond)
	}
	if got, want := receipts(), unlent.Load(); got != want || want == 0 {
		t.Errorf("sessions handed their nodes %d receipts for %d unlent tokens sent", got, want)
	}
	if n := guarded(); n != 0 {
		t.Errorf("%d deadlines still pending at rest: a transfer guard no receipt released", n)
	}
	if n := tokenAcks.Load(); n != 0 {
		t.Errorf("%d token-acks were given to SendBatch, want none", n)
	}
	if perGrant := float64(envelopes.Load()) / acquires; perGrant > 3.2 {
		t.Errorf("%d envelopes for %d grants: %.3f per grant, want at most 3.2", envelopes.Load(), acquires, perGrant)
	}

	// At rest: one token per key, nobody holding or asking, and epoch 0
	// everywhere — no token was regenerated.
	tokens := make(map[uint64]int)
	for _, ls := range nodes {
		rows, err := ls.Census()
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rows {
			if r.Held || r.Busy || r.Epoch != 0 {
				t.Errorf("node %d at rest: %+v", ls.Self(), r)
			}
			tokens[r.Instance] += map[bool]int{true: 1}[r.TokenHere]
		}
	}
	for id, n := range tokens {
		if n != 1 {
			t.Errorf("instance %d has %d tokens at rest", id, n)
		}
	}
}
