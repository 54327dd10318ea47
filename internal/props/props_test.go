package props

import (
	"strings"
	"sync"
	"testing"
)

func TestCollectorAlwaysVerdicts(t *testing.T) {
	var c Collector
	c.Declare(Always, "a.ok")
	c.Declare(Always, "a.bad")
	for i := 0; i < 5; i++ {
		if !c.Always("a.ok", true, nil) {
			t.Fatalf("Always must return cond")
		}
	}
	c.Always("a.bad", true, nil)
	if c.Always("a.bad", false, Details{"x": 1}) {
		t.Fatalf("Always must return cond=false")
	}
	c.Always("a.bad", false, Details{"x": 2})

	rep := c.Report()
	if len(rep) != 2 {
		t.Fatalf("report len = %d, want 2", len(rep))
	}
	if rep[0].ID != "a.ok" || rep[0].Failed() || rep[0].Passes != 5 {
		t.Fatalf("a.ok row wrong: %+v", rep[0])
	}
	bad := rep[1]
	if !bad.Failed() || bad.Fails != 2 || bad.Passes != 1 {
		t.Fatalf("a.bad row wrong: %+v", bad)
	}
	if got := bad.FirstFail["x"]; got != 1 {
		t.Fatalf("FirstFail must keep the first failing details, got x=%v", got)
	}
	if err := c.Err(false); err == nil || !strings.Contains(err.Error(), "a.bad") {
		t.Fatalf("Err must name the failed assertion, got %v", err)
	}
}

func TestCollectorSometimesAndCoverage(t *testing.T) {
	var c Collector
	c.Declare(Sometimes, "s.hit")
	c.Declare(Sometimes, "s.miss")
	c.Declare(Reachable, "r.hit")
	c.Declare(Reachable, "r.miss")

	c.Sometimes("s.hit", false)
	c.Sometimes("s.hit", true)
	c.Sometimes("s.miss", false)
	c.Reachable("r.hit")

	if err := c.Err(false); err != nil {
		t.Fatalf("non-strict must not fail on unreached: %v", err)
	}
	err := c.Err(true)
	if err == nil {
		t.Fatalf("strict must fail on unreached")
	}
	for _, want := range []string{"s.miss", "r.miss"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("strict error %q must name %s", err, want)
		}
	}
	if got := c.Coverage(); got != 0.5 {
		t.Fatalf("coverage = %v, want 0.5", got)
	}
}

func TestCollectorConcurrent(t *testing.T) {
	var c Collector
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Always("conc", true, nil)
				c.Sometimes("conc.s", i%2 == 0)
			}
		}()
	}
	wg.Wait()
	rep := c.Report()
	if rep[0].Passes != 8000 {
		t.Fatalf("passes = %d, want 8000", rep[0].Passes)
	}
}

func TestFormatTable(t *testing.T) {
	var c Collector
	c.Always("x.always", false, Details{"k": "v"})
	c.Declare(Sometimes, "x.sometimes")
	out := Format(c.Report())
	if !strings.Contains(out, "FAILED [k=v]") {
		t.Fatalf("failed row must carry first-fail details:\n%s", out)
	}
	if !strings.Contains(out, "unreached") {
		t.Fatalf("unreached row missing:\n%s", out)
	}
}
