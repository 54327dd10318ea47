// Package chaos is the live-cluster chaos harness: it spins up an
// N-node Lockspace cluster over reliable sessions, pours Zipf-keyed
// lock traffic through it from many client goroutines, and injects the
// live analogues of workload.Churn's faults — node kills with
// stable-storage restarts, directed-link partitions, drop bursts —
// while the props.LockProps suite evaluates every Antithesis-style
// assertion inline. It is the standing rig ROADMAP item 3 calls for:
// the same Run drives the TestLiveStorm_* table tests, the CI
// chaos-smoke job (via cmd/ocmxchaos local), and — the shape is
// compose-compatible — a container-per-node deployment later.
package chaos

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"sync"
	"time"

	"repro/internal/lockspace"
	"repro/internal/obs"
	"repro/internal/props"
	"repro/internal/transport"
	"repro/internal/workload"
)

// FaultKind classifies one scripted fault.
type FaultKind uint8

const (
	// FaultKill closes the victim's lockspace and session mid-flight (the
	// in-process SIGKILL) and restarts it on its stable store after Down.
	FaultKill FaultKind = iota + 1
	// FaultKillHolder first grabs Key (or the hottest key) through the
	// victim and kills it while holding — the guaranteed
	// kill-while-holding scenario of the storm seeds.
	FaultKillHolder
	// FaultPartition cuts both directions between Node and Peer for
	// Down, then heals.
	FaultPartition
	// FaultBurst drops every second data frame cluster-wide for Down.
	FaultBurst
	// FaultZombie grabs Key through Node and goes silent — no Unlock, no
	// Keepalive — so the hold lapses and the next grant is a lease
	// reclaim; a witness client from another node then takes the key.
	FaultZombie
)

// String names the fault kind for plan logs.
func (k FaultKind) String() string {
	switch k {
	case FaultKill:
		return "kill"
	case FaultKillHolder:
		return "kill-holder"
	case FaultPartition:
		return "partition"
	case FaultBurst:
		return "burst"
	case FaultZombie:
		return "zombie"
	}
	return fmt.Sprintf("fault(%d)", k)
}

// Fault is one scheduled fault of a chaos run.
type Fault struct {
	// At is the injection instant, as an offset from run start.
	At   time.Duration
	Kind FaultKind
	// Node is the victim (kill, zombie) or one side of the cut.
	Node int
	// Peer is the other side of a partition.
	Peer int
	// Down is the outage length: time to restart (kills), heal
	// (partitions), or stop dropping (bursts).
	Down time.Duration
}

// Settings no run varies: client goroutines per node, partitions in a
// generated plan, and how long a client waits for one Lock before
// declaring it stuck (a PropNoStuck failure).
const (
	clientsPerNode = 2
	planPartitions = 2
	patience       = 15 * time.Second
)

// Config parameterizes a chaos run. Zero fields take the documented
// defaults.
type Config struct {
	// P is the cube order: the cluster runs 1<<P nodes. Default 3 (N=8).
	P int
	// Seed drives every schedule decision: fault plan, Zipf keys, client
	// pacing. Same seed, same plan (wall-clock interleaving still varies).
	Seed int64
	// Duration bounds the traffic phase; drain and census follow it.
	// Default 10s.
	Duration time.Duration
	// Keys is the key-space size. Default 64.
	Keys int
	// ZipfS is the Zipf skew of key popularity. Default 1.1.
	ZipfS float64
	// LeaseTTL is the lockspace lease. Default 250ms.
	LeaseTTL time.Duration
	// Faults is the scripted fault plan; nil generates one from Seed
	// with at least Kills kills and two partitions.
	Faults []Fault
	// Kills sizes the generated plan. Default 3.
	Kills int
	// Strict turns unreached Sometimes/Reachable assertions into run
	// failures (the CI gate).
	Strict bool
	// Metrics, when set, receives every member lockspace's live series
	// (grants, locks held, waiter depth, lease reclaims and their
	// latency, labeled by node) plus its session's counters, sampled at
	// scrape time (lockspace.Start). cmd/ocmxchaos serves it over HTTP
	// with -metrics.
	Metrics *obs.Registry
	// Autopsy, when set, receives a JSONL autopsy when the run's verdict
	// fails: the failing assertions, the offending keys' token lineage,
	// and the final cluster census as state lines. It also attaches one
	// obs.DefaultFlightDepth flight recorder to every member, which
	// keeps that lineage stamped with wall-clock time.
	Autopsy io.Writer
	// Log, when set, receives progress lines.
	Log func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.P <= 0 {
		c.P = 3
	}
	if c.Duration <= 0 {
		c.Duration = 10 * time.Second
	}
	if c.Keys <= 0 {
		c.Keys = 64
	}
	if c.ZipfS == 0 {
		c.ZipfS = 1.1
	}
	if c.LeaseTTL <= 0 {
		c.LeaseTTL = 250 * time.Millisecond
	}
	if c.Kills <= 0 {
		c.Kills = 3
	}
	if c.Log == nil {
		c.Log = func(string, ...any) {}
	}
	return c
}

// Result is the outcome of one chaos run.
type Result struct {
	// Report is the final assertion table, declaration order.
	Report []props.Assertion
	// Totals are the run counters (requests, grants, reclaims, ...).
	Totals props.Totals
	// Coverage is the reached fraction of Sometimes/Reachable assertions.
	Coverage float64
	// Kills, Partitions, Bursts, Zombies count the faults injected.
	Kills, Partitions, Bursts, Zombies int
	// Drained reports whether the cluster quiesced after traffic ended.
	Drained bool
	// Wall is the whole run's wall-clock time (traffic + drain + census).
	Wall time.Duration
	// Err is the collector's verdict (nil = all assertions hold; with
	// Strict also all coverage reached).
	Err error
}

// driver is one running chaos cluster.
type driver struct {
	cfg     Config
	n       int
	mesh    *transport.SessMesh
	plane   *plane
	members []*member
	props   *props.LockProps
	keys    []string
	zipf    *workload.Zipf
	start   time.Time
	flight  *obs.Flight // the members' recorder; nil without cfg.Autopsy

	trafficCtx    context.Context
	trafficCancel context.CancelFunc

	// wg joins every goroutine of the traffic phase (spawn): clients, the
	// fault runner and what it starts. Run waits on it before the drain,
	// or their events would land after the accounting identity is checked.
	wg sync.WaitGroup
}

// spawn runs f on a goroutine of the traffic phase.
func (d *driver) spawn(f func()) {
	d.wg.Add(1)
	go func() {
		defer d.wg.Done()
		f()
	}()
}

// Run executes one chaos run to completion and returns its Result. The
// error return is for setup problems only; assertion verdicts are in
// Result.Err.
func Run(cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	n := 1 << cfg.P
	mesh, err := transport.NewSessMesh(n, 8192)
	if err != nil {
		return nil, err
	}
	defer mesh.Close()
	zipf, err := workload.NewZipf(cfg.Keys, cfg.ZipfS)
	if err != nil {
		return nil, err
	}
	var col props.Collector
	d := &driver{
		cfg:   cfg,
		n:     n,
		mesh:  mesh,
		plane: newPlane(),
		props: props.NewLockProps(&col, cfg.LeaseTTL),
		keys:  make([]string, cfg.Keys),
		zipf:  zipf,
	}
	if cfg.Autopsy != nil {
		d.flight = obs.NewFlight(obs.DefaultFlightDepth)
	}
	mesh.Drop = d.plane.drop
	for i := range d.keys {
		d.keys[i] = fmt.Sprintf("key-%03d", i)
	}
	d.members = make([]*member, n)
	for i := range d.members {
		d.members[i] = newMember(d, i)
		d.members[i].start()
	}
	d.trafficCtx, d.trafficCancel = context.WithCancel(context.Background())

	plan := cfg.Faults
	if plan == nil {
		plan = defaultPlan(rand.New(rand.NewSource(cfg.Seed)), cfg, n)
	}
	sort.SliceStable(plan, func(i, j int) bool { return plan[i].At < plan[j].At })

	d.start = time.Now()
	cfg.Log("chaos: N=%d keys=%d duration=%v faults=%d seed=%d", n, cfg.Keys, cfg.Duration, len(plan), cfg.Seed)

	for node := 0; node < n; node++ {
		for ci := 0; ci < clientsPerNode; ci++ {
			rng := rand.New(rand.NewSource(cfg.Seed ^ int64(node*997+ci+1)))
			d.spawn(func() { d.client(node, rng) })
		}
	}
	res := &Result{}
	d.spawn(func() { d.runFaults(plan, res) })

	// Traffic phase: clients loop until Duration, then the context cut
	// aborts any Lock still in flight.
	time.Sleep(cfg.Duration)
	d.trafficCancel()
	d.wg.Wait()

	// Drain: heal everything, resurrect the dead, wait for quiescence.
	d.plane.clear()
	for _, m := range d.members {
		m.start()
	}
	drained, census := d.settle(30 * time.Second)
	d.props.Finish(drained, census)

	res.Report = d.props.Collector().Report()
	res.Totals = d.props.Totals()
	res.Coverage = d.props.Collector().Coverage()
	res.Drained = drained
	res.Err = d.props.Collector().Err(cfg.Strict)
	if cfg.Autopsy != nil && res.Err != nil {
		// Members are still up: the autopsy's state lines come from a live
		// cluster census of the offending instances.
		if err := d.writeAutopsy(cfg.Autopsy, res); err != nil {
			cfg.Log("chaos: autopsy write failed: %v", err)
		}
	}

	for _, m := range d.members {
		m.kill()
	}
	res.Wall = time.Since(d.start)
	cfg.Log("chaos: done in %v: %d grants, %d reclaims (max %v), coverage %.0f%%",
		res.Wall.Round(time.Millisecond), res.Totals.Grants, res.Totals.Reclaims,
		res.Totals.MaxReclaim.Round(time.Millisecond), 100*res.Coverage)
	return res, nil
}

// client is one traffic goroutine: Zipf-keyed lock/unlock cycles with
// every outcome routed into the property suite, until traffic ends.
func (d *driver) client(node int, rng *rand.Rand) {
	for d.trafficCtx.Err() == nil {
		sp, alive := d.members[node].get()
		if !alive {
			time.Sleep(20 * time.Millisecond)
			continue
		}
		key := d.keys[d.zipf.Sample(rng)]
		d.lockCycle(sp, node, key, time.Duration(rng.Intn(2000))*time.Microsecond)
	}
}

// lockCycle runs one request → grant → hold → unlock cycle against sp,
// reporting every outcome to the suite. hold is the critical-section
// dwell time. It returns the grant's fence (0 for none) and whether the
// ledger admitted it.
func (d *driver) lockCycle(sp *lockspace.Lockspace, node int, key string, hold time.Duration) (uint64, bool) {
	d.props.OnRequest(node, key)
	ctx, cancel := context.WithTimeout(d.trafficCtx, patience)
	fence, err := sp.Lock(ctx, key)
	cancel()
	if err != nil {
		if errors.Is(err, context.DeadlineExceeded) {
			d.props.OnStuck(node, key, patience)
		} else {
			// ErrClosed (the node died under us) or run shutdown.
			d.props.OnAborted(node, key)
		}
		return 0, false
	}
	admitted := d.props.OnGrant(node, key, fence)
	if hold > 0 {
		time.Sleep(hold)
	}
	d.unlock(sp, node, key, fence)
	return fence, admitted
}

// unlock releases a hold and reports how the release went to the suite.
func (d *driver) unlock(sp *lockspace.Lockspace, node int, key string, fence uint64) {
	switch err := sp.Unlock(key, fence); {
	case err == nil:
		d.props.OnRelease(node, key, fence)
	case errors.Is(err, lockspace.ErrLeaseExpired):
		d.props.OnExpired(node, key, fence)
	default:
		d.props.OnHoldLost(node, key, fence)
	}
}

// settle polls every live member's census until no instance is busy or
// held, or the budget runs out. It returns whether the cluster drained
// and the last poll's live tokens per instance, counting only tokens at
// the instance's highest epoch: a lower-epoch token is a fenced relic of
// a regeneration race (the known §5 class; every fence it could mint is
// already refused), not a second live token.
func (d *driver) settle(budget time.Duration) (drained bool, census map[uint64]int) {
	deadline := time.Now().Add(budget)
	for {
		drained, census = true, make(map[uint64]int)
		top := make(map[uint64]uint32)
		for _, m := range d.members {
			sp, alive := m.get()
			if !alive {
				continue
			}
			rows, err := sp.Census()
			if err != nil {
				continue
			}
			for _, r := range rows {
				drained = drained && !r.Busy && !r.Held
				if !r.TokenHere {
					continue
				}
				if e, seen := top[r.Instance]; !seen || r.Epoch > e {
					top[r.Instance], census[r.Instance] = r.Epoch, 1
				} else if r.Epoch == e {
					census[r.Instance]++
				}
			}
		}
		if drained || time.Now().After(deadline) {
			return drained, census
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// defaultPlan generates a fault schedule from the seed: at least
// cfg.Kills kills (alternating kill-holder and plain), planPartitions
// partition windows, one zombie hold, one drop burst — the coverage
// the Sometimes assertions demand — spread over the middle of the run.
func defaultPlan(rng *rand.Rand, cfg Config, n int) []Fault {
	var plan []Fault
	at := func(lo, hi float64) time.Duration {
		f := lo + (hi-lo)*rng.Float64()
		return time.Duration(f * float64(cfg.Duration))
	}
	// Outages scale with the run so a short smoke still restarts/heals
	// mid-traffic (coverage needs grants AFTER the fault), clamped to
	// [300ms, 3s].
	outage := func() time.Duration {
		d := cfg.Duration/8 + time.Duration(rng.Int63n(int64(cfg.Duration/8)+1))
		if d < 300*time.Millisecond {
			d = 300 * time.Millisecond
		}
		if d > 3*time.Second {
			d = 3 * time.Second
		}
		return d
	}
	// Kills: spaced lanes so one node is never killed while still down.
	lastUp := make([]time.Duration, n)
	for i := 0; i < cfg.Kills; i++ {
		kind := FaultKillHolder
		if i%2 == 1 {
			kind = FaultKill
		}
		down := outage()
		t := at(0.15, 0.60)
		node := rng.Intn(n)
		for tries := 0; tries < n && t < lastUp[node]+500*time.Millisecond; tries++ {
			node = (node + 1) % n
		}
		if t < lastUp[node]+500*time.Millisecond {
			t = lastUp[node] + 500*time.Millisecond
		}
		lastUp[node] = t + down
		plan = append(plan, Fault{At: t, Kind: kind, Node: node, Down: down})
	}
	for i := 0; i < planPartitions; i++ {
		a := rng.Intn(n)
		b := (a + 1 + rng.Intn(n-1)) % n
		plan = append(plan, Fault{
			At: at(0.20, 0.55), Kind: FaultPartition, Node: a, Peer: b,
			Down: outage(),
		})
	}
	plan = append(plan,
		Fault{At: at(0.20, 0.40), Kind: FaultZombie, Node: rng.Intn(n)},
		Fault{At: at(0.45, 0.60), Kind: FaultBurst, Down: cfg.Duration / 12},
	)
	return plan
}

// runFaults executes the plan in order, tallying into res.
func (d *driver) runFaults(plan []Fault, res *Result) {
	for _, f := range plan {
		select {
		case <-time.After(time.Until(d.start.Add(f.At))):
		case <-d.trafficCtx.Done():
			// Traffic is over; skip faults that have not fired (the drain
			// phase restarts and heals everything anyway).
			return
		}
		switch f.Kind {
		case FaultKill, FaultKillHolder:
			m := d.members[f.Node]
			if _, alive := m.get(); !alive {
				continue
			}
			var key string
			var fence uint64
			if f.Kind == FaultKillHolder {
				key, fence = d.grabHold(f.Node)
			}
			d.cfg.Log("chaos: %v kill node %d for %v", f.At.Round(time.Millisecond), f.Node, f.Down)
			m.kill()
			d.props.OnKilled(f.Node)
			if fence != 0 {
				d.props.OnHoldLost(f.Node, key, fence)
			}
			res.Kills++
			d.spawn(func() {
				time.Sleep(f.Down)
				m.start()
			})
		case FaultPartition:
			d.cfg.Log("chaos: %v partition %d<->%d for %v", f.At.Round(time.Millisecond), f.Node, f.Peer, f.Down)
			d.plane.cut(f.Node, f.Peer)
			res.Partitions++
			d.spawn(func() {
				time.Sleep(f.Down)
				d.plane.heal(f.Node, f.Peer)
				d.props.OnHealed()
			})
		case FaultBurst:
			d.cfg.Log("chaos: %v drop burst for %v", f.At.Round(time.Millisecond), f.Down)
			d.plane.burst(f.Down)
			res.Bursts++
		case FaultZombie:
			d.zombie(f)
			res.Zombies++
		}
	}
}

// grabHold makes node a holder of the hottest key just before its kill:
// the guaranteed kill-while-holding scenario. It returns the hold it
// took, or a zero fence when it took none: failure to grab (contention)
// is tolerated — the kill still fires, and another kill covers the
// scenario.
func (d *driver) grabHold(node int) (key string, fence uint64) {
	sp, alive := d.members[node].get()
	if !alive {
		return "", 0
	}
	key = d.keys[0]
	d.props.OnRequest(node, key)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	fence, err := sp.Lock(ctx, key)
	cancel()
	if err != nil {
		d.props.OnAborted(node, key)
		return "", 0
	}
	d.props.OnGrant(node, key, fence)
	return key, fence
}

// zombie grabs a key through a live node and goes silent past the lease
// TTL, sends a witness from another node to reclaim it (the
// reclaim-after-lease coverage), and finally calls the long-dead Unlock
// to watch ErrLeaseExpired surface. The planned victim may be mid-kill
// at injection time, so the node is picked alive at execution. Only a
// hold the ledger admitted can lapse into a reclaim: a grant it refuses
// (a superseded token's) is released at once, and one lease TTL later the
// next live node asks, all within one 10 s budget.
func (d *driver) zombie(f Fault) {
	key := d.keys[0] // the hottest key
	d.spawn(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		for i, dead := 0, 0; ctx.Err() == nil && dead < d.n; i++ {
			node := (f.Node + i) % d.n
			sp, alive := d.members[node].get()
			if !alive {
				dead++
				continue
			}
			dead = 0
			d.props.OnRequest(node, key)
			fence, err := sp.Lock(ctx, key)
			if err != nil {
				d.props.OnAborted(node, key)
				return
			}
			if !d.props.OnGrant(node, key, fence) {
				d.cfg.Log("chaos: %v zombie grant on %q at node %d refused by the ledger (fence %#x)", f.At.Round(time.Millisecond), key, node, fence)
				d.unlock(sp, node, key, fence)
				time.Sleep(d.cfg.LeaseTTL) // let the lineage change before asking again
				continue
			}
			d.silence(sp, node, key, fence, f.At)
			return
		}
	})
}

// silence is the zombie's admitted hold: it goes silent, a witness on the
// next node must get the key back through lease reclaim, and long past
// the TTL the zombie wakes up and tries to unlock — the lease machinery
// must surface the expiry, and the dead fence must be refused by the
// ledger.
func (d *driver) silence(sp *lockspace.Lockspace, node int, key string, fence uint64, at time.Duration) {
	d.props.OnZombie(node, key, fence)
	d.cfg.Log("chaos: %v zombie hold on %q at node %d (fence %#x)", at.Round(time.Millisecond), key, node, fence)
	witness := (node + 1) % d.n
	d.spawn(func() {
		wsp, alive := d.members[witness].get()
		if !alive {
			return
		}
		if fence, admitted := d.lockCycle(wsp, witness, key, 0); fence != 0 && !admitted {
			d.cfg.Log("chaos: %v witness grant on %q at node %d refused by the ledger (fence %#x)", at.Round(time.Millisecond), key, witness, fence)
		}
	})
	time.Sleep(3 * d.cfg.LeaseTTL)
	if err := sp.Unlock(key, fence); errors.Is(err, lockspace.ErrLeaseExpired) {
		d.props.OnLateExpiry(node, key, fence)
	}
}
