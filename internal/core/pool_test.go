package core

import (
	"math/rand"
	"testing"

	"repro/internal/ocube"
)

// TestWaitQueueAgainstModel drives the FIFO ring against a plain-slice
// reference model, checking the ring's bounds and its contents after
// every operation. A deterministic prefix first wraps the ring, grows it
// while wrapped and supersedes an item stored across the wrap point; a
// long randomized push/pop/supersede walk follows. Popped items are
// copies: no later push may alias them.
func TestWaitQueueAgainstModel(t *testing.T) {
	var q waitQueue
	var model []queued

	verify := func(step int) {
		t.Helper()
		if err := q.check(); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if q.n != len(model) {
			t.Fatalf("step %d: queue has %d items, model %d", step, q.n, len(model))
		}
		for i := range model {
			if got := *q.at(i); got != model[i] {
				t.Fatalf("step %d: item %d = %+v, model %+v", step, i, got, model[i])
			}
		}
	}
	var popped []queued // every item ever handed out, with its expected content
	push := func(it queued) {
		q.push(it)
		model = append(model, it)
	}
	pop := func(step int) {
		got := q.pop()
		if got != model[0] {
			t.Fatalf("step %d: popped %+v, model %+v", step, got, model[0])
		}
		model = model[1:]
		popped = append(popped, got)
	}
	// supersede replaces the first request from src in place, as
	// onRequest does for re-issues.
	supersede := func(src ocube.Pos, seq uint64) {
		re := Message{Source: src, Seq: seq}
		for i := range q.n {
			if e := q.at(i); !e.local && e.msg.Source == src {
				e.msg = re
				break
			}
		}
		for i := range model {
			if !model[i].local && model[i].msg.Source == src {
				model[i].msg = re
				break
			}
		}
	}
	req := func(src ocube.Pos, seq uint64) queued { return queued{msg: Message{Source: src, Seq: seq}} }

	// Prefix: fill a ring of four, pop two and push two more, so the
	// tail wraps to slots 0 and 1 behind a head at slot 2.
	step := 0
	for src := range ocube.Pos(4) {
		push(req(src, uint64(step)))
		verify(step)
		step++
	}
	for range 2 {
		pop(step)
		verify(step)
		step++
	}
	push(req(10, uint64(step)))
	push(req(11, uint64(step+1)))
	step += 2
	verify(step)
	if len(q.ring) != 4 || q.head != 2 {
		t.Fatalf("prefix: ring of %d with head %d, want 4 and 2", len(q.ring), q.head)
	}
	supersede(10, 500_000) // stored in slot 0, past the wrap point
	verify(step)
	if q.ring[0].msg.Seq != 500_000 {
		t.Fatalf("prefix: slot 0 holds %+v, want the superseded request", q.ring[0])
	}
	push(queued{local: true}) // full and wrapped: grows
	step++
	verify(step)
	if len(q.ring) != 8 || q.head != 0 {
		t.Fatalf("prefix: grown ring of %d with head %d, want 8 and 0", len(q.ring), q.head)
	}

	rng := rand.New(rand.NewSource(42))
	for ; step < 5000; step++ {
		switch op := rng.Intn(10); {
		case op < 5:
			it := req(ocube.Pos(rng.Intn(64)), uint64(step))
			if rng.Intn(8) == 0 {
				it = queued{local: true}
			}
			push(it)
		case op < 9:
			if q.n == 0 {
				continue
			}
			pop(step)
		default: // seq range disjoint from pushes
			supersede(ocube.Pos(rng.Intn(64)), 1_000_000+uint64(step))
		}
		verify(step)
	}

	// Seq doubles as a uniqueness stamp, so any aliasing between popped
	// items and ring slots would show as a content mismatch above or a
	// duplicate here.
	seen := map[uint64]int{}
	for _, it := range popped {
		if it.local {
			continue
		}
		seen[it.msg.Seq]++
		if seen[it.msg.Seq] > 1 {
			t.Fatalf("request seq %d handed out twice: a ring slot aliased a live item", it.msg.Seq)
		}
	}

	for q.n > 0 {
		q.pop()
	}
	if err := q.check(); err != nil {
		t.Fatalf("after draining: %v", err)
	}
	capacity := len(q.ring)
	q.reset()
	if err := q.check(); err != nil || q.n != 0 || len(q.ring) != capacity {
		t.Fatalf("after reset: %v, %d items, ring %d (was %d)", err, q.n, len(q.ring), capacity)
	}
}

// TestTrackTableAgainstModel drives the source-sorted tracking table
// against a map reference model, checking after every step that it
// stays strictly ascending by source.
func TestTrackTableAgainstModel(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var tab trackTable
	model := map[ocube.Pos]reqTrack{}

	for step := 0; step < 4000; step++ {
		src := ocube.Pos(rng.Intn(300))
		switch rng.Intn(4) {
		case 0: // record a seen sequence
			e := tab.ensure(src)
			e.hasSeen, e.seenSeq = true, uint64(step)
			m := model[src]
			m.src, m.hasSeen, m.seenSeq = src, true, uint64(step)
			model[src] = m
		case 1: // record a grant
			e := tab.ensure(src)
			e.hasGrant, e.grantSeq = true, uint64(step)
			m := model[src]
			m.src, m.hasGrant, m.grantSeq = src, true, uint64(step)
			model[src] = m
		case 2: // clear a grant (transfer rollback)
			if e := tab.lookup(src); e != nil {
				e.hasGrant = false
			}
			if m, ok := model[src]; ok {
				m.hasGrant = false
				model[src] = m
			}
		default: // lookup
			e := tab.lookup(src)
			m, ok := model[src]
			if (e != nil) != ok {
				t.Fatalf("step %d: lookup(%v) present=%v, model %v", step, src, e != nil, ok)
			}
			if e != nil && *e != m {
				t.Fatalf("step %d: lookup(%v) = %+v, model %+v", step, src, *e, m)
			}
		}
		if err := tab.check(); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
	}
	if len(tab) != len(model) {
		t.Fatalf("table has %d entries, model %d", len(tab), len(model))
	}
	tab.reset()
	if err := tab.check(); err != nil {
		t.Fatalf("after reset: %v", err)
	}
	if tab.lookup(3) != nil || len(tab) != 0 {
		t.Fatal("reset table still answers lookups")
	}
}
