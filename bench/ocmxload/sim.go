package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/lockspace"
	"repro/internal/ocube"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/workload"
)

// The sim workloads run fixed work in virtual time: one repetition builds
// the simulation from the seed, schedules every request (the *ready*
// state set-up is timed to) and runs it to quiescence. Repetition 0 is the
// probe: it carries the benchmark's hooks and yields everything read in
// virtual time — latency, messages, outages — which must repeat exactly.
// It also warms the process, and its wall time is discarded. The timed
// repetitions that follow run the same seed bare.
const (
	delta = time.Millisecond // δ, the simulated transmission-delay bound

	keyedP    = 8
	keyedKeys = 16384
	keyedZipf = 1.1

	faultyP        = 6
	faultyRequests = 100000
	faultyCrashGap = 2000        // the holder of every such grant crashes in its critical section
	faultyDowntime = 400 * delta // and recovers this much later
	faultyLoss     = 0.01

	simMinReps    = 5 // timed repetitions, however short the window
	simRefReps    = 5 // traced run: bare repetitions, which yield the lock.* readings and the trace overhead
	simTracedReps = 5
)

// simSize is what the smoke test shrinks.
type simSize struct {
	p        int
	keys     int // sim-keyed
	requests int // sim-faulty
	crashGap int
}

// simRep is one repetition's measurements.
type simRep struct {
	genS, newS, schedS float64 // set-up, by part; their sum is the repetition's set-up time
	wall               time.Duration
	cpu                time.Duration
	from, to           usage
	grants             int64
	steps              uint64
	states             int
	regens, stale      int64
	session            transport.SessionStats
	failures           int

	// Probe repetition only.
	requests int64
	accepted int64
	msgs     int64
	repair   int64           // failure-handling messages
	latency  []time.Duration // virtual: request due → grant
	outages  []time.Duration // virtual: holder's crash → next grant anywhere
}

func (r *simRep) setupS() float64 { return r.genS + r.newS + r.schedS }

// probed reads the probe repetition's message tallies. Repair traffic is
// the control class minus the token acknowledgments every fault-tolerant
// transfer sends, failure or not.
func (r *simRep) probed(rec *trace.Recorder) {
	r.msgs = rec.Total()
	r.repair = rec.Overhead() - rec.Kind(core.KindTokenAck.String())
}

func ftNode(p int) core.Config {
	return core.Config{
		FT: true, Delta: delta, CSEstimate: delta,
		// E9's slack: queueing behind a busy key scales with the cube order.
		SuspicionSlack: time.Duration(24+8*p) * delta,
	}
}

func csTime(rng *rand.Rand) time.Duration { return time.Duration(rng.Int63n(int64(delta))) }

// keyedRep runs one repetition of sim-keyed. probe installs the
// virtual-time hooks; tap, when set, installs the traced run's taps.
func keyedRep(seed int64, size simSize, probe bool, tap *simTap) (*simRep, error) {
	n := 1 << size.p
	count := 6 * size.keys
	// E9's horizon: arrivals slower than one critical section plus round
	// trip even on the Zipf rank-0 key.
	horizon := time.Duration(count*(4*size.p+8)) * delta
	r := &simRep{requests: int64(count)}

	t := time.Now()
	reqs, err := workload.KeyedZipf(rand.New(rand.NewSource(seed)), n, size.keys, count, horizon, keyedZipf)
	if err != nil {
		return nil, err
	}
	r.genS = time.Since(t).Seconds()

	t = time.Now()
	cfg := lockspace.SpaceConfig{
		P: size.p, Instances: size.keys, Node: ftNode(size.p), Seed: seed,
		Delay:  sim.UniformDelay(delta/2, delta),
		CSTime: csTime,
	}
	var rec *trace.Recorder
	if probe {
		rec = &trace.Recorder{}
		cfg.Recorder = rec
	}
	var sp *lockspace.Space
	if tap != nil {
		cfg.Delay = tap.delay(cfg.Delay)
		cfg.Node.Observe = tap.observe
	}
	if sp, err = lockspace.NewSpace(cfg); err != nil {
		return nil, err
	}
	r.newS = time.Since(t).Seconds()
	eng := sp.Network().Eng
	if tap != nil {
		tap.now = eng.Now
	}

	if probe {
		// A node has at most one outstanding wish per instance, so accepts
		// and grants pair up per (instance, node).
		due := make(map[uint64]time.Duration)
		sp.OnRequest(func(inst int, x ocube.Pos) {
			r.accepted++
			due[uint64(inst)<<20|uint64(x)] = eng.Now()
		})
		sp.OnGrant(func(inst int, x ocube.Pos) {
			k := uint64(inst)<<20 | uint64(x)
			r.latency = append(r.latency, eng.Now()-due[k])
			delete(due, k)
		})
	}
	t = time.Now()
	for _, q := range reqs {
		sp.Request(q.Key, ocube.Pos(q.Node), q.At)
	}
	r.schedS = time.Since(t).Seconds()

	r.from = snapshot()
	quiet := sp.Run(horizon + 32000*delta)
	r.to = snapshot()
	r.wall, r.cpu = r.to.at.Sub(r.from.at), r.to.cpu-r.from.cpu
	r.grants, r.steps, r.states = sp.Grants(), eng.Steps(), sp.States()
	r.regens, r.stale = sp.Regenerations(), sp.StaleTokens()
	switch {
	case !quiet:
		return nil, errors.New("the space did not quiesce")
	case sp.Violations() != 0:
		return nil, fmt.Errorf("%d mutual-exclusion violations", sp.Violations())
	}
	if probe {
		r.probed(rec)
	}
	return r, nil
}

// faultyRep runs one repetition of sim-faulty.
func faultyRep(seed int64, size simSize, probe bool, tap *simTap) (*simRep, error) {
	n := 1 << size.p
	horizon := time.Duration(size.requests*(4*size.p+8)) * delta
	r := &simRep{requests: int64(size.requests)}

	t := time.Now()
	reqs := workload.Uniform(rand.New(rand.NewSource(seed)), n, size.requests, horizon)
	r.genS = time.Since(t).Seconds()

	t = time.Now()
	cfg := sim.Config{
		P: size.p, Node: ftNode(size.p), Seed: seed,
		Delay:   sim.LossyDelay(faultyLoss, sim.UniformDelay(delta/2, delta)),
		CSTime:  csTime,
		Session: &transport.SessionConfig{RTO: 4 * delta, MaxRTO: 64 * delta},
	}
	var rec *trace.Recorder
	if probe {
		rec = &trace.Recorder{}
		cfg.Recorder = rec
	}
	if tap != nil {
		cfg.Delay = tap.delay(cfg.Delay)
		cfg.Algorithm = tap.algorithm(size.p, cfg.Node)
		cfg.OnEffect = tap.effect
	}
	w, err := sim.New(cfg)
	if err != nil {
		return nil, err
	}
	r.newS = time.Since(t).Seconds()
	if tap != nil {
		tap.now = w.Eng.Now
	}

	// The crash schedule is part of the workload, so every repetition
	// carries this hook; the probe adds latency and outage bookkeeping.
	crashedAt := time.Duration(-1)
	due := make([]time.Duration, n)
	w.OnGrant(func(x ocube.Pos) {
		now := w.Eng.Now()
		if probe {
			r.latency = append(r.latency, now-due[x])
			if crashedAt >= 0 {
				r.outages = append(r.outages, now-crashedAt)
				crashedAt = -1
			}
		}
		if tap != nil {
			tap.granted(x)
		}
		if w.Grants()%int64(size.crashGap) == 0 {
			r.failures++
			crashedAt = now
			w.Fail(x, 0)
			w.Recover(x, faultyDowntime)
		}
	})
	if probe || tap != nil {
		w.OnRequest(func(x ocube.Pos) {
			r.accepted++
			due[x] = w.Eng.Now()
			if tap != nil {
				tap.accepted(x)
			}
		})
	}
	t = time.Now()
	for _, q := range reqs {
		w.RequestCS(ocube.Pos(q.Node), q.At)
	}
	r.schedS = time.Since(t).Seconds()

	r.from = snapshot()
	quiet := w.RunUntilQuiescent(horizon + 24*time.Hour)
	r.to = snapshot()
	r.wall, r.cpu = r.to.at.Sub(r.from.at), r.to.cpu-r.from.cpu
	r.grants, r.steps = w.Grants(), w.Eng.Steps()
	r.regens, r.stale, r.session = w.Regenerations(), w.StaleTokens(), w.SessionStats()
	switch {
	case !quiet:
		return nil, errors.New("the network did not quiesce")
	case w.ViolationsVisible() != 0:
		return nil, fmt.Errorf("%d application-visible mutual-exclusion violations", w.ViolationsVisible())
	case w.LiveTokens() > 1:
		return nil, fmt.Errorf("%d live tokens at quiescence", w.LiveTokens())
	}
	if probe {
		r.probed(rec)
	}
	return r, nil
}

type repFunc func(seed int64, size simSize, probe bool, tap *simTap) (*simRep, error)

func runSimKeyed(opt runOptions) (*result, error) {
	size := simSize{p: keyedP, keys: keyedKeys}
	if opt.smoke {
		size = simSize{p: 4, keys: 64}
	}
	return runSim(opt, size, keyedRep, true)
}

func runSimFaulty(opt runOptions) (*result, error) {
	size := simSize{p: faultyP, requests: faultyRequests, crashGap: faultyCrashGap}
	if opt.smoke {
		size = simSize{p: 4, requests: 2000, crashGap: 500}
	}
	return runSim(opt, size, faultyRep, false)
}

// timedReps repeats rep bare (or tapped) and checks each repetition served
// exactly the probe's grants: the work is fixed, so anything else means the
// run was not deterministic.
func timedReps(opt runOptions, size simSize, rep repFunc, probe *simRep, atLeast int, window time.Duration, tap *simTap) ([]*simRep, error) {
	var reps []*simRep
	start := time.Now()
	for len(reps) < atLeast || time.Since(start) < window {
		collectGarbage()
		if tap != nil {
			tap.beginRep(len(reps))
		}
		r, err := rep(opt.seed, size, false, tap)
		if err != nil {
			return nil, err
		}
		if tap != nil {
			tap.endRep(r)
		}
		if r.grants != probe.grants || r.steps != probe.steps {
			return nil, fmt.Errorf("repetition %d served %d grants in %d events, the probe %d in %d: not deterministic",
				len(reps), r.grants, r.steps, probe.grants, probe.steps)
		}
		reps = append(reps, r)
	}
	return reps, nil
}

func repColumn(reps []*simRep, f func(*simRep) float64) []float64 {
	out := make([]float64, len(reps))
	for i, r := range reps {
		out[i] = f(r)
	}
	return out
}

// lockMetrics fills the wall-clock readings of the lock service as a whole
// from bare repetitions; latency is the probe's, in virtual time.
func lockMetrics(m map[string]float64, probe *simRep, reps []*simRep) {
	g := float64(probe.grants)
	us := durationsUS(probe.latency)
	m["lock.grants_per_s"] = g / median(repColumn(reps, func(r *simRep) float64 { return r.wall.Seconds() }))
	m["lock.acquire_p50_us"] = percentile(us, 0.50)
	m["lock.acquire_p99_us"] = percentile(us, 0.99)
	m["lock.cpu_us_per_grant"] = median(repColumn(reps, func(r *simRep) float64 { return float64(r.cpu) / 1e3 / g }))
	m["lock.peak_rss_mb"] = peakRSSMB()
}

func runSim(opt runOptions, size simSize, rep repFunc, keyed bool) (*result, error) {
	probe, err := rep(opt.seed, size, true, nil)
	if err != nil {
		return nil, fmt.Errorf("probe repetition: %w", err)
	}
	if probe.grants == 0 {
		return nil, errors.New("no grant")
	}
	// Every wish a live node accepted must have been granted; a wish due at
	// a crashed node, or while the node's previous wish for the same lock
	// was still pending, was never issued (workload.skipped_share).
	attempted, failed := probe.accepted, probe.accepted-probe.grants
	if failed < 0 {
		return nil, fmt.Errorf("%d grants for %d accepted requests", probe.grants, probe.accepted)
	}
	if opt.traced {
		return runSimTraced(opt, size, rep, keyed, probe)
	}

	atLeast := simMinReps
	if opt.smoke {
		atLeast = 1
	}
	reps, err := timedReps(opt, size, rep, probe, atLeast, opt.window, nil)
	if err != nil {
		return nil, err
	}
	walls := repColumn(reps, func(r *simRep) float64 { return r.wall.Seconds() })
	setups := repColumn(reps, (*simRep).setupS)
	res := &result{
		attempted: attempted,
		failed:    failed,
		metrics: map[string]float64{
			"msgs_per_grant": float64(probe.msgs) / float64(probe.grants),
			"setup_s":        minOf(setups),
		},
		notes: []string{
			fmt.Sprintf("open loop in virtual time, %d requests scheduled, %d accepted, %d grants; latency over %d samples",
				probe.requests, probe.accepted, probe.grants, len(probe.latency)),
			fmt.Sprintf("%d timed repetitions after the probe, wall %.3f..%.3f s, median %.3f",
				len(reps), minOf(walls), maxOf(walls), median(walls)),
			fmt.Sprintf("setup_s is the fastest of %d cold set-ups (median %.4f s, slowest %.4f)",
				len(setups), median(setups), maxOf(setups)),
		},
	}
	lockMetrics(res.metrics, probe, reps)
	if len(probe.outages) > 0 {
		res.notes = append(res.notes, fmt.Sprintf("%d holder crashes, outage p50 %.3f ms (virtual)",
			probe.failures, percentile(durationsUS(probe.outages), 0.5)/1e3))
	}
	return res, nil
}

// lavault is Lavault's path-reversal average, ¾·log₂N + 5/4 messages per
// critical section.
func lavault(p int) float64 { return 0.75*float64(p) + 1.25 }

// probeLayer fills the per-layer metrics the probe repetition reads in
// virtual time or from public counters.
func probeLayer(m map[string]float64, probe *simRep, p int) {
	g := float64(probe.grants)
	m["core.lavault_ratio"] = float64(probe.msgs) / g / lavault(p)
	m["core.regenerations"] = float64(probe.regens)
	m["core.stale_tokens"] = float64(probe.stale)
	m["workload.skipped_share"] = float64(probe.requests-probe.accepted) / float64(probe.requests)
	m["bench.failed_share"] = float64(probe.accepted-probe.grants) / math.Max(1, float64(probe.accepted))
	if probe.failures > 0 {
		m["core.repair_msgs_per_failure"] = float64(probe.repair) / float64(probe.failures)
	}
	if len(probe.outages) > 0 {
		ms := durationsUS(probe.outages)
		m["core.outage_p50_ms"] = percentile(ms, 0.5) / 1e3
		m["core.outage_max_ms"] = ms[len(ms)-1] / 1e3
	}
	m["sim.session.frames_per_grant"] = float64(probe.session.Frames) / g
	m["sim.session.retransmits_per_grant"] = float64(probe.session.Retransmits) / g
}
