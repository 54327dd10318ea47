package main

import (
	"encoding/gob"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/ocube"
	"repro/internal/transport"
)

// The traced run of a live workload interposes on the two seams the
// packages export — the transport.BatchTransport handed to lockspace.New
// and the transport.FrameLink handed to transport.NewSession — and on the
// client's own Lock calls. The taps record raw events only while a burst
// is on (burstOn of every burstOn+burstOff), so a 10 s window at tens of
// thousands of grants per second stays a few MB; counters run always.
// After the window the events are stitched into one parent-linked span
// tree per acquire: envelopes across nodes by instance + kind + source +
// seq, frames by From/Boot/Seq.
const (
	burstOn  = 25 * time.Millisecond
	burstOff = 225 * time.Millisecond
	// frameSizeEvery is how often the link tap gob-encodes a frame of its
	// own to estimate the bytes the link hides.
	frameSizeEvery = 16
	// spanAcquires caps how many stitched acquires are written as spans;
	// the statistics use every stitched acquire.
	spanAcquires = 2000
)

// envKey identifies one envelope between two nodes.
type envKey struct {
	inst     uint64
	seq      uint64
	from, to int16
	source   int16
	kind     core.Kind
}

func keyOf(e core.Envelope) envKey {
	return envKey{inst: e.Instance, seq: e.Msg.Seq, from: int16(e.Msg.From), to: int16(e.Msg.To),
		source: int16(e.Msg.Source), kind: e.Msg.Kind}
}

// frameKey identifies one session frame between two nodes; acks carry
// seq 0 and the acknowledged seq in ack.
type frameKey struct {
	boot, seq, ack uint64
	from, to       int16
}

type envSend struct {
	key        envKey
	start, end int64 // inside SendBatch
	batch      int64 // per-tap batch number, shared by a batch's envelopes
}

type envRecv struct {
	key envKey
	at  int64
}

type frameSend struct {
	key        frameKey
	first      envKey // first envelope of a data frame: names the batch
	start, end int64  // inside SendFrame
}

type frameRecv struct {
	key frameKey
	at  int64
}

type acquireRec struct {
	inst       uint64
	start, end int64 // Lock call → Lock returns
	node       int
}

// nodeTap is one node's share of the raw events, under its own lock so the
// taps of different nodes never contend.
type nodeTap struct {
	mu         sync.Mutex
	envSends   []envSend
	envRecvs   []envRecv
	frameSends []frameSend
	frameRecvs []frameRecv
	acquires   []acquireRec
	batches    int64

	sizeMu  sync.Mutex
	sizeEnc *gob.Encoder
	sizeW   countingWriter
}

type countingWriter struct{ n int64 }

func (w *countingWriter) Write(p []byte) (int, error) { w.n += int64(len(p)); return len(p), nil }

// liveTap is the traced run's recorder.
type liveTap struct {
	log   *spanLog
	on    atomic.Bool
	nodes [liveNodes]nodeTap
	done  chan struct{}

	bursts [][2]int64 // on-intervals, written by the burst goroutine only

	dataFrames, ackFrames  atomic.Int64
	sizedFrames, sizeBytes atomic.Int64
}

func newLiveTap() *liveTap {
	t := &liveTap{log: newSpanLog(), done: make(chan struct{})}
	for i := range t.nodes {
		n := &t.nodes[i]
		n.sizeEnc = gob.NewEncoder(&n.sizeW)
	}
	return t
}

func (t *liveTap) now() int64 { return int64(time.Since(t.log.epoch)) }

// stop releases the forwarding goroutines of a closed cluster.
func (t *liveTap) stop() { close(t.done) }

// runBursts records for on out of every on+off until until; it returns
// once the last burst is closed.
func (t *liveTap) runBursts(until time.Time, on, off time.Duration) {
	for time.Now().Before(until) {
		from := t.now()
		t.on.Store(true)
		time.Sleep(on)
		t.on.Store(false)
		t.bursts = append(t.bursts, [2]int64{from, t.now()})
		time.Sleep(off)
	}
}

// acquire records one client acquire that ended inside a burst.
func (t *liveTap) acquire(node int, inst uint64, start, granted time.Time) {
	if !t.on.Load() {
		return
	}
	n := &t.nodes[node]
	n.mu.Lock()
	n.acquires = append(n.acquires, acquireRec{inst: inst, start: t.log.since(start), end: t.log.since(granted), node: node})
	n.mu.Unlock()
}

// batchTap wraps a node's BatchTransport.
type batchTap struct {
	inner transport.BatchTransport
	tap   *liveTap
	self  int
	out   chan []core.Envelope
}

func (t *liveTap) wrapBatch(self ocube.Pos, inner transport.BatchTransport) transport.BatchTransport {
	// Buffered like Session's own delivery channel, so the tap adds a hop
	// but no new back-pressure.
	b := &batchTap{inner: inner, tap: t, self: int(self), out: make(chan []core.Envelope, 1024)}
	go b.forward()
	return b
}

func (b *batchTap) SendBatch(to ocube.Pos, batch []core.Envelope) error {
	if !b.tap.on.Load() {
		return b.inner.SendBatch(to, batch)
	}
	start := b.tap.now()
	err := b.inner.SendBatch(to, batch)
	end := b.tap.now()
	n := &b.tap.nodes[b.self]
	n.mu.Lock()
	n.batches++
	for _, e := range batch {
		n.envSends = append(n.envSends, envSend{key: keyOf(e), start: start, end: end, batch: n.batches})
	}
	n.mu.Unlock()
	return err
}

func (b *batchTap) forward() {
	defer close(b.out)
	in := b.inner.RecvBatch()
	for {
		select {
		case batch, ok := <-in:
			if !ok {
				return
			}
			if b.tap.on.Load() {
				at := b.tap.now()
				n := &b.tap.nodes[b.self]
				n.mu.Lock()
				for _, e := range batch {
					n.envRecvs = append(n.envRecvs, envRecv{key: keyOf(e), at: at})
				}
				n.mu.Unlock()
			}
			select {
			case b.out <- batch:
			case <-b.tap.done:
				return
			}
		case <-b.tap.done:
			return
		}
	}
}

func (b *batchTap) RecvBatch() <-chan []core.Envelope { return b.out }
func (b *batchTap) Close() error                      { return b.inner.Close() }

// linkTap wraps a node's FrameLink.
type linkTap struct {
	inner transport.FrameLink
	tap   *liveTap
	self  int
	out   chan transport.SessFrame
	seen  atomic.Int64
}

func (t *liveTap) wrapLink(self ocube.Pos, inner transport.FrameLink) transport.FrameLink {
	// Buffered like the links' own inboxes.
	l := &linkTap{inner: inner, tap: t, self: int(self), out: make(chan transport.SessFrame, 1024)}
	go l.forward()
	return l
}

func frameKeyOf(f transport.SessFrame, to int) frameKey {
	return frameKey{boot: f.Boot, seq: f.Seq, ack: f.Ack, from: int16(f.From), to: int16(to)}
}

func (l *linkTap) SendFrame(to ocube.Pos, f transport.SessFrame) error {
	if f.Seq == 0 {
		l.tap.ackFrames.Add(1)
	} else {
		l.tap.dataFrames.Add(1)
	}
	if l.seen.Add(1)%frameSizeEvery == 0 {
		// The link hides its bytes; encode the frame once more, on a
		// stream of the tap's own, to estimate them.
		n := &l.tap.nodes[l.self]
		n.sizeMu.Lock()
		before := n.sizeW.n
		if err := n.sizeEnc.Encode(f); err == nil {
			l.tap.sizedFrames.Add(1)
			l.tap.sizeBytes.Add(n.sizeW.n - before)
		}
		n.sizeMu.Unlock()
	}
	if !l.tap.on.Load() {
		return l.inner.SendFrame(to, f)
	}
	rec := frameSend{key: frameKeyOf(f, int(to))}
	if len(f.Batch) > 0 {
		rec.first = keyOf(f.Batch[0])
	}
	rec.start = l.tap.now()
	err := l.inner.SendFrame(to, f)
	rec.end = l.tap.now()
	n := &l.tap.nodes[l.self]
	n.mu.Lock()
	n.frameSends = append(n.frameSends, rec)
	n.mu.Unlock()
	return err
}

func (l *linkTap) forward() {
	defer close(l.out)
	in := l.inner.RecvFrame()
	for {
		select {
		case f, ok := <-in:
			if !ok {
				return
			}
			if l.tap.on.Load() {
				at := l.tap.now()
				n := &l.tap.nodes[l.self]
				n.mu.Lock()
				n.frameRecvs = append(n.frameRecvs, frameRecv{key: frameKeyOf(f, l.self), at: at})
				n.mu.Unlock()
			}
			select {
			case l.out <- f:
			case <-l.tap.done:
				return
			}
		case <-l.tap.done:
			return
		}
	}
}

func (l *linkTap) RecvFrame() <-chan transport.SessFrame { return l.out }
func (l *linkTap) Close() error                          { return l.inner.Close() }

// hop is one envelope's journey between two nodes.
type hop struct {
	envSend
	recv int64 // -1 when the arrival fell outside a burst
}

// fifo matches arrivals to departures of one key in time order.
type fifo[K comparable] map[K][]int64

func (q fifo[K]) push(k K, at int64) { q[k] = append(q[k], at) }

// pop returns the earliest arrival of k not before after, or -1.
func (q fifo[K]) pop(k K, after int64) int64 {
	list := q[k]
	for len(list) > 0 && list[0] < after {
		list = list[1:]
	}
	if len(list) == 0 {
		q[k] = nil
		return -1
	}
	q[k] = list[1:]
	return list[0]
}

// liveLayers is what stitching yields besides the spans.
type liveLayers struct {
	acquires, stitched, local int
	localUS, serviceUS        []float64
	wakeupUS, hops            []float64
	uncovered                 float64 // summed share of acquire time no span covers
	transitUS, sendUS         []float64
	linkSendUS, linkTransitUS []float64
}

// stitch joins the raw events into spans and per-layer samples.
func (t *liveTap) stitch() *liveLayers {
	L := &liveLayers{}
	var sends []envSend
	var acquires []acquireRec
	var fsends []frameSend
	envArrivals, frameArrivals := fifo[envKey]{}, fifo[frameKey]{}
	for i := range t.nodes {
		n := &t.nodes[i]
		// A forwarder that saw the last burst still on may be appending.
		n.mu.Lock()
		sends = append(sends, n.envSends...)
		acquires = append(acquires, n.acquires...)
		fsends = append(fsends, n.frameSends...)
		sort.Slice(n.envRecvs, func(a, b int) bool { return n.envRecvs[a].at < n.envRecvs[b].at })
		for _, r := range n.envRecvs {
			envArrivals.push(r.key, r.at)
		}
		sort.Slice(n.frameRecvs, func(a, b int) bool { return n.frameRecvs[a].at < n.frameRecvs[b].at })
		for _, r := range n.frameRecvs {
			frameArrivals.push(r.key, r.at)
		}
		n.mu.Unlock()
	}
	sort.Slice(sends, func(a, b int) bool { return sends[a].start < sends[b].start })
	sort.Slice(fsends, func(a, b int) bool { return fsends[a].start < fsends[b].start })
	sort.Slice(acquires, func(a, b int) bool { return acquires[a].start < acquires[b].start })

	// Envelope journeys, grouped by the acquire they can belong to.
	type chainKey struct {
		inst   uint64
		source int16
	}
	chains := map[chainKey][]hop{}
	seenBatch := map[[2]int64]bool{}
	for _, s := range sends {
		h := hop{envSend: s, recv: envArrivals.pop(s.key, s.start)}
		if b := [2]int64{int64(s.key.from), s.batch}; !seenBatch[b] {
			seenBatch[b] = true
			L.sendUS = append(L.sendUS, float64(s.end-s.start)/1e3)
			if h.recv >= 0 {
				L.transitUS = append(L.transitUS, float64(h.recv-s.start)/1e3)
			}
		}
		if s.key.kind == core.KindRequest || s.key.kind == core.KindToken {
			k := chainKey{s.key.inst, s.key.source}
			chains[k] = append(chains[k], h)
		}
	}
	// Frames, by the batch they carry; acks by the frame they acknowledge.
	type frameTrip struct {
		frameSend
		recv int64
	}
	framesOf := map[envKey][]frameTrip{}
	acksOf := map[frameKey][]frameTrip{}
	for _, f := range fsends {
		trip := frameTrip{frameSend: f, recv: frameArrivals.pop(f.key, f.start)}
		L.linkSendUS = append(L.linkSendUS, float64(f.end-f.start)/1e3)
		if trip.recv >= 0 {
			d := trip.recv - f.end // the receiver can win the race on the mesh
			if d < 0 {
				d = 0
			}
			L.linkTransitUS = append(L.linkTransitUS, float64(d)/1e3)
		}
		if f.key.seq != 0 {
			framesOf[f.first] = append(framesOf[f.first], trip)
		} else {
			acked := frameKey{boot: f.key.boot, seq: f.key.ack, from: f.key.to, to: f.key.from}
			acksOf[acked] = append(acksOf[acked], trip)
		}
	}

	inBurst := func(from, to int64) bool {
		i := sort.Search(len(t.bursts), func(i int) bool { return t.bursts[i][1] >= to })
		return i < len(t.bursts) && t.bursts[i][0] <= from
	}
	root := t.log.add(span{Name: "run", Start: 0, End: t.now(), Node: -1})
	for _, a := range acquires {
		if !inBurst(a.start, a.end) {
			continue // a burst edge cut it: its events are incomplete
		}
		L.acquires++
		var chain []hop
		for _, h := range chains[chainKey{a.inst, int16(a.node)}] {
			if h.start >= a.start && h.start <= a.end {
				chain = append(chain, h)
			}
		}
		lat := float64(a.end - a.start)
		ok := true
		for i, h := range chain {
			switch {
			case h.recv < 0,
				i == 0 && int(h.key.from) != a.node,
				i > 0 && (h.key.from != chain[i-1].key.to || h.start < chain[i-1].recv),
				h.key.seq>>20 != chain[0].key.seq>>20:
				ok = false
			}
		}
		if n := len(chain); ok && n > 0 {
			last := chain[n-1]
			ok = last.key.kind == core.KindToken && int(last.key.to) == a.node && last.recv <= a.end
		}
		if !ok {
			L.uncovered++
			continue
		}
		L.stitched++
		emit := L.stitched <= spanAcquires
		var id int64
		child := func(name string, from, to int64, node int, parent int64) int64 {
			if !emit {
				return 0
			}
			return t.log.add(span{Parent: parent, Name: name, Start: from, End: to, Acquire: id, Node: node})
		}
		if emit {
			id = t.log.add(span{Parent: root, Name: "acquire", Start: a.start, End: a.end, Node: a.node})
			t.log.spans[id-1].Acquire = id
		}
		L.hops = append(L.hops, float64(len(chain)))
		if len(chain) == 0 {
			L.local++
			L.localUS = append(L.localUS, lat/1e3)
			child("lockspace.local", a.start, a.end, a.node, id)
			continue
		}
		L.localUS = append(L.localUS, float64(chain[0].start-a.start)/1e3)
		child("lockspace.local", a.start, chain[0].start, a.node, id)
		for i, h := range chain {
			if i > 0 {
				L.serviceUS = append(L.serviceUS, float64(h.start-chain[i-1].recv)/1e3)
				child("lockspace.hop_service", chain[i-1].recv, h.start, int(h.key.from), id)
			}
			transit := child("transport.session.transit", h.start, h.recv, int(h.key.from), id)
			child("transport.session.send", h.start, h.end, int(h.key.from), transit)
			for _, f := range framesOf[h.key] {
				if f.start < h.start || f.start > h.end || f.recv < 0 {
					continue
				}
				frame := child("transport.link.frame", f.start, f.recv, int(f.key.from), transit)
				child("transport.link.send", f.start, f.end, int(f.key.from), frame)
				for _, ack := range acksOf[f.key] {
					if ack.start >= f.recv && ack.recv >= 0 {
						child("transport.link.ack", ack.start, ack.recv, int(ack.key.from), frame)
						break
					}
				}
			}
		}
		last := chain[len(chain)-1]
		L.wakeupUS = append(L.wakeupUS, float64(a.end-last.recv)/1e3)
		child("lockspace.grant_wakeup", last.recv, a.end, a.node, id)
	}
	return L
}

// runLiveTraced measures an untapped reference window, then the same
// workload and seed on a tapped cluster, and reports the per-layer metrics.
func runLiveTraced(shape liveShape, opt runOptions) (*result, error) {
	keys, warm := readyKeys, liveWarmup
	ref, traced := refWindow, tracedWindow
	on, off := burstOn, burstOff
	if opt.smoke {
		// One burst over the whole window: a smoke run is too short for
		// 25 ms samples to be sure of catching a whole acquire.
		keys, warm, ref, traced = shape.keys, smokeWarmup, opt.window, opt.window
		on, off = opt.window, 0
	}

	// Reference: the untraced configuration, for the lock.* readings and
	// bench.trace_overhead_share.
	c, _, err := coldSetup(shape, keys, nil)
	if err != nil {
		return nil, err
	}
	refSegs, refSeg := segmentsFor(ref)
	rw, err := c.drive(shape, opt.seed, warm, refSeg, refSegs, nil)
	c.close()
	if err != nil {
		return nil, fmt.Errorf("reference window: %w", err)
	}
	m := map[string]float64{}
	rw.lockMetrics(m)
	collectGarbage()

	tap := newLiveTap()
	c, _, err = coldSetup(shape, keys, tap)
	if err != nil {
		return nil, err
	}
	defer func() { c.close(); tap.stop() }()
	segments, seg := segmentsFor(traced)
	burstsDone := make(chan struct{})
	go func() {
		defer close(burstsDone)
		time.Sleep(warm)
		tap.runBursts(time.Now().Add(time.Duration(segments)*seg), on, off)
	}()
	w, err := c.drive(shape, opt.seed, warm, seg, segments, tap)
	<-burstsDone
	if err != nil {
		return nil, fmt.Errorf("traced window: %w", err)
	}
	grants := w.grants()
	g := float64(grants)
	L := tap.stitch()
	if L.stitched == 0 {
		return nil, errors.New("no acquire could be stitched from the taps")
	}
	var stats transport.SessionStats
	for _, s := range c.sessions {
		st := s.Stats()
		stats.Retransmits += st.Retransmits
		stats.DupDrops += st.DupDrops
	}
	for name, v := range map[string]float64{
		"lockspace.local_us":                     quantile(L.localUS, 0.5),
		"lockspace.hop_service_us":               quantile(L.serviceUS, 0.5),
		"lockspace.grant_wakeup_us":              quantile(L.wakeupUS, 0.5),
		"lockspace.hops_per_acquire":             quantile(L.hops, 0.5),
		"lockspace.local_grant_share":            float64(L.local) / float64(L.stitched),
		"lockspace.envelopes_per_batch":          float64(w.envelopes) / float64(w.batches),
		"transport.session.transit_p50_us":       quantile(L.transitUS, 0.5),
		"transport.session.transit_p99_us":       quantile(L.transitUS, 0.99),
		"transport.session.send_us":              mean(L.sendUS),
		"transport.session.frames_per_grant":     float64(w.data) / g,
		"transport.session.ack_frames_per_grant": float64(w.acks) / g,
		"transport.session.retransmits":          float64(stats.Retransmits),
		"transport.session.dup_drops":            float64(stats.DupDrops),
		"transport.link.send_us":                 mean(L.linkSendUS),
		"transport.link.transit_us":              quantile(L.linkTransitUS, 0.5),
		"core.lavault_ratio":                     float64(w.envelopes) / g / lavault(liveP),
		"bench.failed_share":                     float64(w.failed) / float64(w.attempted),
		"bench.trace_overhead_share":             1 - w.grantsPerSec()/rw.grantsPerSec(),
		"bench.unattributed_share":               L.uncovered / float64(L.acquires),
	} {
		m[name] = v
	}
	if n := tap.sizedFrames.Load(); n > 0 {
		m["transport.link.frame_bytes_est"] = float64(tap.sizeBytes.Load()) / float64(n)
	}
	runtimeLayer(m, []window{{w.from, w.to}}, grants)
	if err := tap.log.finish(opt.spans); err != nil {
		return nil, err
	}
	return &result{
		attempted: w.attempted, failed: w.failed, metrics: m,
		notes: []string{
			fmt.Sprintf("reference %v untapped, then %v tapped with %v bursts every %v; %d grants in the tapped window",
				ref, traced, burstOn, burstOn+burstOff, grants),
			fmt.Sprintf("%d acquires fell inside a burst, %d stitched end to end (%d granted locally), %d spans kept",
				L.acquires, L.stitched, L.local, len(tap.log.spans)),
		},
	}, nil
}
