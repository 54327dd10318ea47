package transport

import (
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/ocube"
)

// TestSessionPeerStatsConcurrent drives one sender at two peers over a
// lossy mesh while a scraper goroutine hammers PeerStats() — the shape
// of a live /metrics scrape against a session under load. Meaningful
// under -race; at the end the per-peer breakdown must sum exactly to
// the aggregate SessionStats counters.
func TestSessionPeerStatsConcurrent(t *testing.T) {
	mesh, err := NewSessMesh(3, 256)
	if err != nil {
		t.Fatal(err)
	}
	var dropMu sync.Mutex
	nData := 0
	mesh.Drop = func(to ocube.Pos, f SessFrame) bool {
		if f.Seq == 0 {
			return false // acks pass
		}
		dropMu.Lock()
		defer dropMu.Unlock()
		nData++
		return nData%3 == 0
	}
	cfg := SessionConfig{RTO: 5 * time.Millisecond, MaxRTO: 50 * time.Millisecond}
	a := NewSession(0, mesh.Endpoint(0), cfg)
	b := NewSession(1, mesh.Endpoint(1), cfg)
	c := NewSession(2, mesh.Endpoint(2), cfg)
	t.Cleanup(func() {
		a.Close()
		b.Close()
		c.Close()
		mesh.Close()
	})

	stop := make(chan struct{})
	var scraped sync.WaitGroup
	scraped.Add(1)
	go func() {
		defer scraped.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = a.PeerStats()
				_ = a.Stats()
			}
		}
	}()

	const n = 15
	var sends sync.WaitGroup
	for _, to := range []ocube.Pos{1, 2} {
		to := to
		sends.Add(1)
		go func() {
			defer sends.Done()
			for i := 0; i < n; i++ {
				if err := a.SendBatch(to, payload(i)); err != nil {
					t.Errorf("send to %v: %v", to, err)
					return
				}
			}
		}()
	}
	sends.Wait()
	collect(t, b, n)
	collect(t, c, n)
	close(stop)
	scraped.Wait()

	// With a third of the data frames dropped, both peers must have cost
	// retransmissions, and the per-peer slices must account for every
	// aggregate retransmit (snapshot both under a quiet link: delivery
	// of all n batches per peer means every frame has been acked).
	st := a.Stats()
	per := a.PeerStats()
	if per[1].Retransmits == 0 || per[2].Retransmits == 0 {
		t.Errorf("expected retransmits to both peers, got %+v", per)
	}
	var sum int64
	for _, ps := range per {
		sum += ps.Retransmits
	}
	if sum != st.Retransmits {
		t.Errorf("per-peer retransmits sum to %d, aggregate says %d", sum, st.Retransmits)
	}

	// Dup-drop accounting on the receiver side: b's dup drops (if any)
	// must be attributed to peer 0, and the sums must match.
	bst := b.Stats()
	var bsum int64
	for pos, ps := range b.PeerStats() {
		if pos != 0 && ps.DupDrops != 0 {
			t.Errorf("dup drops attributed to peer %v, only 0 ever sent", pos)
		}
		bsum += ps.DupDrops
	}
	if bsum != bst.DupDrops {
		t.Errorf("per-peer dup drops sum to %d, aggregate says %d", bsum, bst.DupDrops)
	}
}

// TestSessionStatsAddSumsEveryField fills two SessionStats with distinct
// values in every counter and checks Add sums each one: a counter added
// to the struct but not to Add comes back unsummed and fails here.
func TestSessionStatsAddSumsEveryField(t *testing.T) {
	var a, b SessionStats
	var next uint64
	fillDistinct(t, reflect.ValueOf(&a).Elem(), &next)
	fillDistinct(t, reflect.ValueOf(&b).Elem(), &next)
	sum := reflect.ValueOf(a.Add(b))
	av, bv := reflect.ValueOf(a), reflect.ValueOf(b)
	for i := 0; i < sum.NumField(); i++ {
		if got, want := sum.Field(i).Int(), av.Field(i).Int()+bv.Field(i).Int(); got != want {
			t.Errorf("Add: %s = %d, want %d", sum.Type().Field(i).Name, got, want)
		}
	}
}
