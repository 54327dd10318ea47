package obs

import (
	"io"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// TestPromGolden pins the exposition format byte-for-byte: counter,
// gauge, function-collected and histogram rendering, label-value
// escaping, and the stable family/series ordering a scraper relies on.
func TestPromGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("zz_last_total", "Registered first, rendered last.").Add(7)
	r.Gauge("aa_gauge", "A gauge.", "node", "3").Set(2.5)
	r.Gauge("aa_gauge", "A gauge.", "node", "10").Set(-1)
	r.Counter("esc_total", "Escapes.", "path", "a\\b\"c\nd").Inc()
	r.CounterFunc("fn_total", "Collected at scrape time.", func() float64 { return 42 })
	h := r.Histogram("lat_seconds", "A histogram.", []float64{0.1, 1}, "op", "lock")
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(0.5)
	h.Observe(3)

	var b strings.Builder
	if err := r.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	want := `# HELP aa_gauge A gauge.
# TYPE aa_gauge gauge
aa_gauge{node="10"} -1
aa_gauge{node="3"} 2.5
# HELP esc_total Escapes.
# TYPE esc_total counter
esc_total{path="a\\b\"c\nd"} 1
# HELP fn_total Collected at scrape time.
# TYPE fn_total counter
fn_total 42
# HELP lat_seconds A histogram.
# TYPE lat_seconds histogram
lat_seconds_bucket{op="lock",le="0.1"} 1
lat_seconds_bucket{op="lock",le="1"} 3
lat_seconds_bucket{op="lock",le="+Inf"} 4
lat_seconds_sum{op="lock"} 4.05
lat_seconds_count{op="lock"} 4
# HELP zz_last_total Registered first, rendered last.
# TYPE zz_last_total counter
zz_last_total 7
`
	if got := b.String(); got != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestRegistryGetOrCreate checks that re-registration returns the same
// handle (same name+labels) or a distinct series (different labels),
// and that label order does not matter to the signature.
func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("c_total", "help", "x", "1", "y", "2")
	b := r.Counter("c_total", "help", "y", "2", "x", "1")
	if a != b {
		t.Error("same labels in different order returned distinct counters")
	}
	c := r.Counter("c_total", "help", "x", "2", "y", "2")
	if a == c {
		t.Error("different labels returned the same counter")
	}
}

// TestNilReceivers pins the zero-cost-when-off contract: every mutation
// method must be a no-op on a nil handle.
func TestNilReceivers(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	c.Inc()
	c.Add(3)
	g.Set(1)
	g.Add(1)
	h.Observe(1)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 {
		t.Error("nil handles reported non-zero values")
	}
}

// TestRegistryConcurrent exercises registration and mutation from many
// goroutines (meaningful under -race).
func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				r.Counter("con_total", "help").Inc()
				r.Gauge("con_gauge", "help").Add(1)
				r.Histogram("con_seconds", "help", []float64{1}).Observe(0.5)
				if j%100 == 0 {
					// Scrapes race new series and a replaced fn.
					r.CounterFunc("con_fn", "help", func() float64 { return 1 }, "j", strconv.Itoa(j))
					if err := r.WriteProm(io.Discard); err != nil {
						t.Error(err)
					}
				}
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("con_total", "help").Value(); got != 8000 {
		t.Errorf("counter = %d, want 8000", got)
	}
	var b strings.Builder
	if err := r.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
}
