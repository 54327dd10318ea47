package chaos

import (
	"bytes"
	"context"
	"strconv"
	"strings"
	"testing"

	"repro/internal/lockspace"
	"repro/internal/obs"
	"repro/internal/props"
	"repro/internal/transport"
)

// TestForcedViolationAutopsy forces a mutual-exclusion always-violation
// into the property suite of a small live cluster — a second grant of
// the same fence, the thing the protocol exists to prevent — and checks
// the autopsy JSONL names the failed assertion and carries the
// offending key's full token lineage from the flight recorder. This is
// the PR 9 acceptance pin for the chaos half of the autopsy path.
func TestForcedViolationAutopsy(t *testing.T) {
	mesh, err := transport.NewSessMesh(2, 4096)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mesh.Close() })

	var col props.Collector
	cfg := Config{P: 1}.withDefaults()
	d := &driver{
		cfg:    cfg,
		n:      2,
		mesh:   mesh,
		plane:  newPlane(),
		props:  props.NewLockProps(&col, cfg.LeaseTTL, 0),
		flight: obs.NewFlight(obs.DefaultFlightDepth),
	}
	mesh.Drop = d.plane.drop
	d.members = make([]*member, d.n)
	for i := range d.members {
		d.members[i] = newMember(d, i)
		d.members[i].start()
	}
	t.Cleanup(func() {
		for _, m := range d.members {
			m.kill()
		}
	})

	// Real traffic first, so the flight recorder holds the key's genuine
	// request→grant lineage (node 1 must fetch the token from node 0).
	const key = "violated-key"
	sp, alive := d.members[1].get()
	if !alive {
		t.Fatal("member 1 not alive")
	}
	d.props.OnRequest(1, key)
	fence, err := sp.Lock(context.Background(), key)
	if err != nil {
		t.Fatal(err)
	}
	d.props.OnGrant(1, key, fence)

	// The forced violation: a second grant of the SAME fence while the
	// first is still held.
	d.props.OnRequest(0, key)
	d.props.OnGrant(0, key, fence)

	if err := sp.Unlock(key, fence); err != nil {
		t.Fatal(err)
	}

	res := &Result{Report: d.props.Collector().Report()}
	res.Err = col.Err(false)
	if res.Err == nil {
		t.Fatal("forced double grant did not fail the verdict")
	}
	var buf bytes.Buffer
	if err := d.writeAutopsy(&buf, res); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, `"reason":"chaos-verdict-failed"`) {
		t.Errorf("autopsy missing reason header:\n%s", out)
	}
	if !strings.Contains(out, props.PropMutualExclusion) {
		t.Errorf("autopsy does not name %s:\n%s", props.PropMutualExclusion, out)
	}
	inst := strconv.FormatUint(lockspace.KeyInstance(key), 10)
	if !strings.Contains(out, `"instance":`+inst) {
		t.Errorf("autopsy does not carry instance %s:\n%s", inst, out)
	}
	for _, kind := range []string{`"kind":"request"`, `"kind":"grant"`} {
		if !strings.Contains(out, kind) {
			t.Errorf("autopsy lineage missing %s:\n%s", kind, out)
		}
	}
}
