package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	opencubemx "repro"
	"repro/internal/core"
	"repro/internal/lockspace"
	"repro/internal/ocube"
	"repro/internal/transport"
	"repro/internal/workload"
)

// The live workloads run 8 lockspace.Lockspace nodes (P=3) in this
// process, each over its own transport.Session, configured as `ocmxchaos
// node` ships them but with failure-detector bounds wide enough that a
// descheduled goroutine is not mistaken for a crash.
const (
	liveP     = 3
	liveNodes = 1 << liveP

	// readyKeys sizes the *ready* state set-up is timed to: a restarted
	// service that knows its key space — every node has locked and
	// unlocked each key once, so links are dialled, gob types exchanged and
	// liveNodes*readyKeys instance machines exist.
	readyKeys = 1024

	liveWarmup   = 2 * time.Second
	smokeWarmup  = 100 * time.Millisecond
	liveSegment  = 2 * time.Second // nominal; the window is cut into equal segments of about this
	livePatience = 5 * time.Second // a Lock slower than this counts as failed

	// The traced run: an untapped reference window, which yields the lock.*
	// readings, then the same length with the taps on.
	refWindow    = 10 * time.Second
	tracedWindow = 10 * time.Second
)

// liveShape is what distinguishes the two live workloads.
type liveShape struct {
	tcp     bool    // loopback SessTCP, else the in-memory SessMesh
	clients int     // closed-loop client goroutines
	keys    int     // the workload draws from the first keys of the ready set
	zipf    float64 // key skew; 0 draws uniformly
	pinned  bool    // client i stays on node i; otherwise each acquire picks a node
	// setups is how many complete cold set-ups one untraced run times, at
	// least 11 and about 3 s of them; setup_s is the fastest (set-up noise
	// is purely additive).
	setups int
}

var (
	liveTCPRoam = liveShape{tcp: true, clients: 2, keys: 256, setups: 11}
	liveMeshHot = liveShape{clients: liveNodes, keys: 4, zipf: 1.1, pinned: true, setups: 24}
)

func keyName(i int) string { return fmt.Sprintf("k%04d", i) }

// sendCounter is the counting shim's state: batches in the high 32 bits,
// envelopes in the low 32, so a SendBatch costs one atomic add.
type sendCounter struct{ v atomic.Uint64 }

func (c *sendCounter) read() (batches, envelopes int64) {
	v := c.v.Load()
	return int64(v >> 32), int64(v & (1<<32 - 1))
}

// countingTransport is the only interposition of the untraced run: it
// counts what SendBatch is handed and passes everything else through.
type countingTransport struct {
	transport.BatchTransport
	c *sendCounter
}

func (t countingTransport) SendBatch(to ocube.Pos, batch []core.Envelope) error {
	t.c.v.Add(1<<32 + uint64(len(batch)))
	return t.BatchTransport.SendBatch(to, batch)
}

// liveCluster is one 8-node cluster and everything needed to close it.
type liveCluster struct {
	nodes    []*lockspace.Lockspace
	sessions []*transport.Session
	mesh     *transport.SessMesh
	sent     sendCounter
}

// reservePorts finds n free loopback ports. NewSessTCP binds the address
// it is given and every node must know all addresses up front, so the
// ports are found by listening on :0 and closing; a rebind can lose the
// race to another process, which newLiveCluster answers by retrying.
func reservePorts(n int) (map[ocube.Pos]string, error) {
	addrs := make(map[ocube.Pos]string, n)
	var held []net.Listener
	defer func() {
		for _, ln := range held {
			ln.Close()
		}
	}()
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		held = append(held, ln)
		addrs[ocube.Pos(i)] = ln.Addr().String()
	}
	return addrs, nil
}

// newLiveCluster brings the cluster up. tap is nil in the untraced run.
func newLiveCluster(shape liveShape, tap *liveTap) (*liveCluster, error) {
	var err error
	for attempt := 0; attempt < 8; attempt++ {
		var c *liveCluster
		if c, err = tryLiveCluster(shape, tap); err == nil {
			return c, nil
		}
	}
	return nil, err
}

func tryLiveCluster(shape liveShape, tap *liveTap) (*liveCluster, error) {
	c := &liveCluster{}
	links := make([]transport.FrameLink, liveNodes)
	if shape.tcp {
		addrs, err := reservePorts(liveNodes)
		if err != nil {
			return nil, err
		}
		for i := range links {
			l, err := transport.NewSessTCP(ocube.Pos(i), addrs)
			if err != nil {
				for _, open := range links[:i] {
					open.Close()
				}
				return nil, err
			}
			links[i] = l
		}
	} else {
		mesh, err := transport.NewSessMesh(liveNodes, 4096)
		if err != nil {
			return nil, err
		}
		c.mesh = mesh
		for i := range links {
			links[i] = mesh.Endpoint(ocube.Pos(i))
		}
	}
	for i, link := range links {
		self := ocube.Pos(i)
		if tap != nil {
			link = tap.wrapLink(self, link)
		}
		sess := transport.NewSession(self, link, transport.SessionConfig{})
		c.sessions = append(c.sessions, sess)
		var tr transport.BatchTransport = countingTransport{sess, &c.sent}
		if tap != nil {
			tr = tap.wrapBatch(self, tr)
		}
		ls, err := lockspace.New(lockspace.Config{
			Node: core.Config{
				Self: self, P: liveP, FT: true, EpochFence: true,
				Delta: 200 * time.Millisecond, CSEstimate: 200 * time.Millisecond,
				SuspicionSlack: time.Second,
			},
			Transport: tr,
			LeaseTTL:  2 * time.Second,
		})
		if err != nil {
			c.close()
			for _, l := range links[len(c.sessions):] {
				l.Close()
			}
			return nil, err
		}
		c.nodes = append(c.nodes, ls)
	}
	return c, nil
}

func (c *liveCluster) close() {
	for _, n := range c.nodes {
		n.Close()
	}
	for _, s := range c.sessions {
		s.Close()
	}
	if c.mesh != nil {
		c.mesh.Close()
	}
}

// ready walks the cluster to the *ready* state: every node locks and
// unlocks each of the first keys once, all nodes at once, each starting at
// its own offset so they rarely meet on a key.
func (c *liveCluster) ready(keys int) error {
	errs := make(chan error, len(c.nodes))
	for i, n := range c.nodes {
		go func(i int, n *lockspace.Lockspace) {
			for j := 0; j < keys; j++ {
				key := keyName((j + i*keys/len(c.nodes)) % keys)
				ctx, cancel := context.WithTimeout(context.Background(), livePatience)
				fence, err := n.Lock(ctx, key)
				cancel()
				if err == nil {
					err = n.Unlock(key, fence)
				}
				if err != nil {
					errs <- fmt.Errorf("ready: node %d key %s: %w", i, key, err)
					return
				}
			}
			errs <- nil
		}(i, n)
	}
	var first error
	for range c.nodes {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	return first
}

// coldSetup times one complete set-up to the ready state.
func coldSetup(shape liveShape, keys int, tap *liveTap) (*liveCluster, time.Duration, error) {
	start := time.Now()
	c, err := newLiveCluster(shape, tap)
	if err != nil {
		return nil, 0, err
	}
	if err := c.ready(keys); err != nil {
		c.close()
		return nil, 0, err
	}
	return c, time.Since(start), nil
}

// settle waits for every node to report no held lock and no protocol
// activity, then checks the token census: at most one token per key at the
// key's highest epoch (a lower-epoch token is a fenced relic).
func (c *liveCluster) settle() error {
	deadline := time.Now().Add(livePatience)
	for {
		type tok struct {
			epoch uint32
			count int
		}
		best := map[uint64]*tok{}
		busy := false
		for _, n := range c.nodes {
			rows, err := n.Census()
			if err != nil {
				return fmt.Errorf("census: %w", err)
			}
			for _, r := range rows {
				if r.Busy || r.Held {
					busy = true
				}
				if !r.TokenHere {
					continue
				}
				if b := best[r.Instance]; b == nil || r.Epoch > b.epoch {
					best[r.Instance] = &tok{r.Epoch, 1}
				} else if r.Epoch == b.epoch {
					b.count++
				}
			}
		}
		if !busy {
			for inst, b := range best {
				if b.count > 1 {
					return fmt.Errorf("census: instance %d has %d tokens at epoch %d", inst, b.count, b.epoch)
				}
			}
			return nil
		}
		if time.Now().After(deadline) {
			return errors.New("census: cluster still busy after the drain patience")
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// segment is one measured segment of a live window.
type segment struct {
	lat  []time.Duration // Lock call → grant of every acquire granted in it
	wall time.Duration
	cpu  time.Duration // process CPU over wall
}

// liveWindow is what one measured window of a live cluster yields.
type liveWindow struct {
	segs       []segment
	batches    int64
	envelopes  int64
	data, acks int64 // session frames the link tap saw (traced run)
	attempted  int64
	failed     int64
	from, to   usage
}

func (w *liveWindow) grants() int64 {
	var g int64
	for i := range w.segs {
		g += int64(len(w.segs[i].lat))
	}
	return g
}

// column is f over the window's segments.
func (w *liveWindow) column(f func(*segment) float64) []float64 {
	out := make([]float64, len(w.segs))
	for i := range w.segs {
		out[i] = f(&w.segs[i])
	}
	return out
}

// grantsPerSec is the median over segments of grants per second.
func (w *liveWindow) grantsPerSec() float64 {
	return median(w.column(func(s *segment) float64 { return float64(len(s.lat)) / s.wall.Seconds() }))
}

// drive runs the shape's closed-loop clients against the cluster without a
// pause: warm-up, then segments of seg each, cut from the one continuous
// window by the coordinator's clock. An acquire belongs to the segment in
// which it was granted. Every acquire is checked: the per-key occupancy
// counter never exceeds one and fences strictly increase per key through a
// FencedResource. rec, when set, is told of every acquire (traced run).
func (c *liveCluster) drive(shape liveShape, seed int64, warm, seg time.Duration, segments int, rec *liveTap) (*liveWindow, error) {
	var zipf *workload.Zipf
	if shape.zipf > 0 {
		var err error
		if zipf, err = workload.NewZipf(shape.keys, shape.zipf); err != nil {
			return nil, err
		}
	}
	keys := make([]string, shape.keys)
	for i := range keys {
		keys[i] = keyName(i)
	}
	occupancy := make([]atomic.Int32, shape.keys)
	resource := opencubemx.NewFencedResource()
	var violation atomic.Pointer[string]
	fail := func(format string, args ...any) {
		s := fmt.Sprintf(format, args...)
		violation.CompareAndSwap(nil, &s)
	}

	// current is the segment being measured: -1 during warm-up and after
	// the last segment.
	var current atomic.Int32
	current.Store(-1)
	var stop atomic.Bool

	type clientLog struct {
		segLat            [][]time.Duration
		attempted, failed int64
	}
	logs := make([]clientLog, shape.clients)
	var wg sync.WaitGroup
	for ci := 0; ci < shape.clients; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			log := &logs[ci]
			log.segLat = make([][]time.Duration, segments)
			rng := rand.New(rand.NewSource(seed*7919 + int64(ci)))
			for !stop.Load() {
				node := ci % liveNodes
				if !shape.pinned {
					node = rng.Intn(liveNodes)
				}
				k := 0
				if zipf != nil {
					k = zipf.Sample(rng)
				} else {
					k = rng.Intn(shape.keys)
				}
				ls := c.nodes[node]
				// An operation is one begun inside the measured window.
				counted := current.Load() >= 0
				if counted {
					log.attempted++
				}
				start := time.Now()
				ctx, cancel := context.WithTimeout(context.Background(), livePatience)
				fence, err := ls.Lock(ctx, keys[k])
				granted := time.Now()
				cancel()
				if err != nil {
					if counted {
						log.failed++
					}
					continue
				}
				si := current.Load()
				if n := occupancy[k].Add(1); n != 1 {
					fail("mutual exclusion: %d holders of %s", n, keys[k])
				}
				if err := resource.Access(keys[k], fence); err != nil {
					fail("fence order: %v", err)
				}
				occupancy[k].Add(-1)
				err = ls.Unlock(keys[k], fence)
				if rec != nil {
					rec.acquire(node, lockspace.KeyInstance(keys[k]), start, granted)
				}
				if err != nil {
					if counted {
						log.failed++ // the lease lapsed under the holder
					}
					continue
				}
				if si >= 0 {
					log.segLat[si] = append(log.segLat[si], granted.Sub(start))
				}
			}
		}(ci)
	}

	// The coordinator only reads clocks and counters at the segment edges;
	// the clients never wait for it.
	w := &liveWindow{segs: make([]segment, segments)}
	time.Sleep(warm)
	b0, e0 := c.sent.read()
	if rec != nil {
		w.data, w.acks = -rec.dataFrames.Load(), -rec.ackFrames.Load()
	}
	resetPeakRSS()
	w.from = snapshot()
	cpu0, t0 := w.from.cpu, w.from.at
	for i := range w.segs {
		current.Store(int32(i))
		time.Sleep(seg)
		cpu1, t1 := cpuTime(), time.Now()
		w.segs[i].wall, w.segs[i].cpu = t1.Sub(t0), cpu1-cpu0
		cpu0, t0 = cpu1, t1
	}
	current.Store(-1)
	w.to = snapshot()
	b1, e1 := c.sent.read()
	w.batches, w.envelopes = b1-b0, e1-e0
	if rec != nil {
		w.data, w.acks = w.data+rec.dataFrames.Load(), w.acks+rec.ackFrames.Load()
	}
	stop.Store(true)
	wg.Wait()

	if v := violation.Load(); v != nil {
		return nil, errors.New(*v)
	}
	for i := range logs {
		for si, lat := range logs[i].segLat {
			w.segs[si].lat = append(w.segs[si].lat, lat...)
		}
		w.attempted += logs[i].attempted
		w.failed += logs[i].failed
	}
	if w.grants() == 0 {
		return nil, errors.New("no grant in the measured window")
	}
	if err := c.settle(); err != nil {
		return nil, err
	}
	return w, nil
}

// lockMetrics fills the wall-clock readings of the lock service as a whole
// from an untapped window: each is the median over segments of the
// segment's value, so a burst shorter than a segment cannot move it.
func (w *liveWindow) lockMetrics(m map[string]float64) {
	p50, p99 := make([]float64, len(w.segs)), make([]float64, len(w.segs))
	for i := range w.segs {
		us := durationsUS(w.segs[i].lat)
		p50[i], p99[i] = percentile(us, 0.50), percentile(us, 0.99)
	}
	cpu := w.column(func(s *segment) float64 { return float64(s.cpu) / 1e3 / math.Max(1, float64(len(s.lat))) })
	m["lock.grants_per_s"] = w.grantsPerSec()
	m["lock.acquire_p50_us"] = median(p50)
	m["lock.acquire_p99_us"] = median(p99)
	m["lock.cpu_us_per_grant"] = median(cpu)
	m["lock.peak_rss_mb"] = peakRSSMB()
}

// segmentsFor cuts a window into equal segments of about liveSegment each.
func segmentsFor(window time.Duration) (int, time.Duration) {
	n := int(window / liveSegment)
	if n < 1 {
		n = 1
	}
	return n, window / time.Duration(n)
}

// collectGarbage returns freed memory to the OS so one repetition's
// garbage is not charged to the next one's resident set.
func collectGarbage() {
	runtime.GC()
	debug.FreeOSMemory()
}

func runLive(shape liveShape, opt runOptions) (*result, error) {
	if opt.traced {
		return runLiveTraced(shape, opt)
	}
	setups, keys, warm := shape.setups, readyKeys, liveWarmup
	if opt.smoke {
		setups, keys, warm = 1, shape.keys, smokeWarmup
	}
	var c *liveCluster
	var setupS []float64
	for i := 0; i < setups; i++ {
		if c != nil {
			c.close()
			c = nil
			collectGarbage()
		}
		var took time.Duration
		var err error
		if c, took, err = coldSetup(shape, keys, nil); err != nil {
			return nil, err
		}
		setupS = append(setupS, took.Seconds())
	}
	defer c.close()

	segments, seg := segmentsFor(opt.window)
	w, err := c.drive(shape, opt.seed, warm, seg, segments, nil)
	if err != nil {
		return nil, err
	}
	grants := w.grants()
	samples := w.column(func(s *segment) float64 { return float64(len(s.lat)) })
	res := &result{
		attempted: w.attempted,
		failed:    w.failed,
		metrics: map[string]float64{
			"msgs_per_grant": float64(w.envelopes) / float64(grants),
			"setup_s":        minOf(setupS),
		},
		notes: []string{
			fmt.Sprintf("%d clients, closed loop, %d segments of %v after %v warm-up; %d grants, fewest samples in a segment %.0f",
				shape.clients, segments, seg, warm, grants, minOf(samples)),
			fmt.Sprintf("setup_s is the fastest of %d cold set-ups (median %.4f s, slowest %.4f)",
				len(setupS), median(setupS), maxOf(setupS)),
		},
	}
	w.lockMetrics(res.metrics)
	return res, nil
}
