package lockspace

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/ocube"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

const delta = time.Millisecond

func ftTemplate() core.Config {
	return core.Config{FT: true, Delta: delta, CSEstimate: delta, SuspicionSlack: 24 * delta}
}

// TestSingleInstanceMatchesPlainNetwork pins the envelope layer's
// semantics: a 1-instance lockspace must serve a sequential schedule
// with exactly the message traffic of the plain single-mutex network —
// the multiplexer adds a tag, not behavior.
func TestSingleInstanceMatchesPlainNetwork(t *testing.T) {
	const p = 3
	n := 1 << p
	reqs := workload.RoundRobin(n, time.Duration(4*p)*10*delta)

	plainRec := &trace.Recorder{}
	w, err := sim.New(sim.Config{P: p, Seed: 11, Delay: sim.FixedDelay(delta),
		Recorder: plainRec, Node: ftTemplate()})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range reqs {
		w.RequestCS(ocube.Pos(r.Node), r.At)
	}
	if !w.RunUntilQuiescent(time.Hour) {
		t.Fatal("plain network did not quiesce")
	}

	muxRec := &trace.Recorder{}
	sp, err := NewSpace(SpaceConfig{P: p, Instances: 1, Node: ftTemplate(),
		Seed: 11, Delay: sim.FixedDelay(delta), Recorder: muxRec})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range reqs {
		sp.Request(0, ocube.Pos(r.Node), r.At)
	}
	if !sp.Run(time.Hour) {
		t.Fatal("lockspace did not quiesce")
	}

	if sp.Grants() != w.Grants() {
		t.Errorf("grants: lockspace %d, plain %d", sp.Grants(), w.Grants())
	}
	if muxRec.Total() != plainRec.Total() {
		t.Errorf("messages: lockspace %d, plain %d", muxRec.Total(), plainRec.Total())
	}
	if sp.Violations() != 0 || w.Violations() != 0 {
		t.Errorf("violations: lockspace %d, plain %d", sp.Violations(), w.Violations())
	}
}

// TestNewSpaceInstanceBound: instance inst wishes as inst+1, which a sim
// wish event carries up to math.MaxInt32, so that is as many instances as
// a space may have; one more is refused when the space is built, not when
// the wish is scheduled.
func TestNewSpaceInstanceBound(t *testing.T) {
	for _, k := range []int{0, math.MaxInt32 + 1} {
		if _, err := NewSpace(SpaceConfig{P: 1, Instances: k}); err == nil {
			t.Errorf("NewSpace accepted Instances=%d", k)
		}
	}
	if _, err := NewSpace(SpaceConfig{P: 1, Instances: math.MaxInt32}); err != nil {
		t.Errorf("NewSpace refused Instances=math.MaxInt32: %v", err)
	}
}

// TestInstancesHoldConcurrently pins the whole point of the lockspace:
// two different keys are independent critical sections. Two 50δ critical
// sections on one mutex need at least 100δ of virtual time; on two
// instances they overlap.
func TestInstancesHoldConcurrently(t *testing.T) {
	sp, err := NewSpace(SpaceConfig{P: 2, Instances: 2, Seed: 1,
		Delay:  sim.FixedDelay(delta),
		CSTime: func(*rand.Rand) time.Duration { return 50 * delta }})
	if err != nil {
		t.Fatal(err)
	}
	sp.Request(0, 1, 0)
	sp.Request(1, 2, 0)
	if !sp.Run(time.Hour) {
		t.Fatal("did not quiesce")
	}
	if sp.Grants() != 2 {
		t.Fatalf("grants = %d, want 2", sp.Grants())
	}
	if sp.Violations() != 0 {
		t.Fatalf("violations = %d; distinct instances must not count as overlap", sp.Violations())
	}
	if now := sp.Network().Eng.Now(); now >= 100*delta {
		t.Errorf("virtual time %v; two independent 50δ critical sections should overlap", now)
	}
}

// TestContendedSpaceSafety runs a skewed many-key workload and checks
// per-instance mutual exclusion plus quiescence.
func TestContendedSpaceSafety(t *testing.T) {
	const p, keys = 4, 32
	n := 1 << p
	sp, err := NewSpace(SpaceConfig{P: p, Instances: keys, Seed: 7,
		Delay:  sim.UniformDelay(delta/2, delta),
		CSTime: func(rng *rand.Rand) time.Duration { return time.Duration(rng.Int63n(int64(delta))) }})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	reqs, err := workload.KeyedZipf(rng, n, keys, 12*keys, time.Duration(8*keys)*delta, 1.1)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range reqs {
		sp.Request(r.Key, ocube.Pos(r.Node), r.At)
	}
	if !sp.Run(24 * time.Hour) {
		t.Fatal("did not quiesce")
	}
	if sp.Violations() != 0 {
		t.Fatalf("violations = %d", sp.Violations())
	}
	if sp.Grants() == 0 {
		t.Fatal("no grants served")
	}
	if sp.States() > n*keys {
		t.Errorf("states = %d exceeds worst case %d", sp.States(), n*keys)
	}
}

// TestLazyInstantiation checks that untouched instances cost nothing:
// a space declared for 1024 keys but driven on 3 instantiates only the
// positions those 3 instances' traffic actually visits.
func TestLazyInstantiation(t *testing.T) {
	const p, keys = 4, 1024
	sp, err := NewSpace(SpaceConfig{P: p, Instances: keys, Seed: 3,
		Delay: sim.FixedDelay(delta)})
	if err != nil {
		t.Fatal(err)
	}
	for inst := 0; inst < 3; inst++ {
		sp.Request(inst, 5, time.Duration(inst)*50*delta)
	}
	if !sp.Run(time.Hour) {
		t.Fatal("did not quiesce")
	}
	if sp.Grants() != 3 {
		t.Fatalf("grants = %d, want 3", sp.Grants())
	}
	if sp.States() == 0 || sp.States() > 3*(p+1) {
		t.Errorf("states = %d, want a handful (≤ %d): only touched positions instantiate", sp.States(), 3*(p+1))
	}
}

// TestCrashRecoveryOfHotInstanceHolder injects the E9 fault: the node
// granted the hot instance's second critical section fail-stops inside
// it and recovers much later. Every instance it hosted must recover —
// the hot one by token regeneration — and the whole space must quiesce
// with per-instance safety intact.
func TestCrashRecoveryOfHotInstanceHolder(t *testing.T) {
	const p, keys = 3, 4
	n := 1 << p
	sp, err := NewSpace(SpaceConfig{P: p, Instances: keys, Node: ftTemplate(), Seed: 5,
		Delay:  sim.UniformDelay(delta/2, delta),
		CSTime: func(rng *rand.Rand) time.Duration { return time.Duration(rng.Int63n(int64(delta))) }})
	if err != nil {
		t.Fatal(err)
	}
	hotGrants := 0
	sp.OnGrant(func(inst int, x ocube.Pos) {
		if inst == 0 {
			hotGrants++
			if hotGrants == 2 {
				sp.Network().Fail(x, 0)
				sp.Network().Recover(x, 400*delta)
			}
		}
	})
	rng := rand.New(rand.NewSource(5))
	reqs, err := workload.KeyedZipf(rng, n, keys, 10*keys, time.Duration(8*keys)*delta, 1.2)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range reqs {
		sp.Request(r.Key, ocube.Pos(r.Node), r.At)
	}
	if !sp.Run(24 * time.Hour) {
		t.Fatal("space did not recover to quiescence after the crash")
	}
	if sp.Violations() != 0 {
		t.Fatalf("violations = %d", sp.Violations())
	}
	if hotGrants < 2 {
		t.Fatalf("hot instance granted %d times; injection never fired", hotGrants)
	}
	if sp.Grants() == 0 {
		t.Fatal("no grants")
	}
}

// TestSpaceDeterminism replays a full crash-injected skewed run twice
// from one seed and requires identical observables.
func TestSpaceDeterminism(t *testing.T) {
	type outcome struct {
		grants, violations, regens, stale int64
		msgs                              int64
		states                            int
		now                               time.Duration
	}
	run := func() outcome {
		const p, keys = 3, 16
		n := 1 << p
		rec := &trace.Recorder{}
		sp, err := NewSpace(SpaceConfig{P: p, Instances: keys, Node: ftTemplate(), Seed: 9,
			Delay:    sim.UniformDelay(delta/2, delta),
			Recorder: rec,
			CSTime:   func(rng *rand.Rand) time.Duration { return time.Duration(rng.Int63n(int64(delta))) }})
		if err != nil {
			t.Fatal(err)
		}
		fired := false
		sp.OnGrant(func(inst int, x ocube.Pos) {
			if inst == 0 && !fired {
				fired = true
				sp.Network().Fail(x, 0)
				sp.Network().Recover(x, 300*delta)
			}
		})
		rng := rand.New(rand.NewSource(9))
		reqs, err := workload.KeyedZipf(rng, n, keys, 8*keys, time.Duration(6*keys)*delta, 1.1)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range reqs {
			sp.Request(r.Key, ocube.Pos(r.Node), r.At)
		}
		if !sp.Run(24 * time.Hour) {
			t.Fatal("did not quiesce")
		}
		return outcome{
			grants: sp.Grants(), violations: sp.Violations(),
			regens: sp.Regenerations(), stale: sp.StaleTokens(),
			msgs: rec.Total(), states: sp.States(), now: sp.Network().Eng.Now(),
		}
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("seeded lockspace runs diverged:\n  first  %+v\n  second %+v", a, b)
	}
}

// TestRequestRejectsOutOfRangeArguments: Space.Request panics on an
// instance or a position outside the space at the call — an accepted
// out-of-range position used to sit in the queue and panic inside the
// engine's dispatcher when its event fired.
func TestRequestRejectsOutOfRangeArguments(t *testing.T) {
	sp, err := NewSpace(SpaceConfig{P: 2, Instances: 3, Node: ftTemplate()})
	if err != nil {
		t.Fatal(err)
	}
	bad := []struct {
		inst int
		x    ocube.Pos
	}{{3, 0}, {-1, 0}, {0, 4}, {0, ocube.None}, {2, 1 << 20}}
	for _, b := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Request(inst=%d, x=%v) was accepted", b.inst, b.x)
				}
			}()
			sp.Request(b.inst, b.x, delta)
		}()
	}
	sp.Request(2, 3, delta)
	if !sp.Run(time.Minute) || sp.Grants() != 1 {
		t.Errorf("after the rejected calls one valid request served %d grants", sp.Grants())
	}
}
