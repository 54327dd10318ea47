// Package obs is the repository's dependency-free observability layer:
// an atomic metrics registry with Prometheus text exposition (plus an
// HTTP server that mounts it next to /debug/pprof), a bounded token-
// lineage flight recorder shared by the simulated and live runtimes,
// and JSONL autopsy dumps written when a property fails or a runtime
// stalls.
//
// The zero-cost-when-off contract: nothing in this package is touched
// by the hot paths unless explicitly wired in. The protocol core emits
// through a nil-checked function pointer (core.Config.Observe), and
// every counter/gauge method tolerates a nil receiver, so disabled
// observability costs exactly one predictable branch per site — BENCH
// gates and experiment tables are byte-identical with obs off.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric. Mutation is a single
// atomic add; all methods are safe on a nil receiver (no-ops), so call
// sites need no "is obs enabled" branching of their own.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.v.Add(1)
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous value that can go up and down. Safe on a
// nil receiver like Counter.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Value returns the current value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a fixed-bucket cumulative histogram. Observe is one
// atomic add per bucket plus a CAS on the running sum; safe on a nil
// receiver.
type Histogram struct {
	bounds  []float64 // upper bounds, ascending; +Inf is implicit
	counts  []atomic.Int64
	sumBits atomic.Uint64
	count   atomic.Int64
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Count returns the number of samples observed.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// LatencyBuckets returns the default bucket bounds (seconds) used for
// latency histograms: 1ms to ~16s in powers of two.
func LatencyBuckets() []float64 {
	b := make([]float64, 0, 15)
	for v := 0.001; v < 20; v *= 2 {
		b = append(b, v)
	}
	return b
}

// series is one labeled instance of a metric family.
type series struct {
	sig string // rendered label block, e.g. `{node="3"}`, "" when unlabeled
	c   *Counter
	g   *Gauge
	h   *Histogram
	fn  func() float64 // scrape-time collection (CounterFunc)
}

// family groups the series sharing one metric name.
type family struct {
	name   string
	help   string
	typ    string // "counter", "gauge", "histogram"
	series map[string]*series
}

// Registry is a collection of metric families rendered in the
// Prometheus text exposition format. Registration (Counter, Gauge, …)
// is get-or-create and mutex-guarded; the returned handles mutate with
// lock-free atomics. A nil *Registry is not usable — gate registration,
// not mutation, on whether observability is enabled.
type Registry struct {
	mu   sync.Mutex
	fams map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: make(map[string]*family)}
}

// Counter returns the counter named name with the given label pairs
// (k1, v1, k2, v2, …), creating it on first use. Registering the same
// name with a different metric type panics: that is a programming
// error, not a runtime condition.
func (r *Registry) Counter(name, help string, labels ...string) *Counter {
	return r.get(name, help, "counter", labels, func(s *series) {
		if s.c == nil {
			s.c = &Counter{}
		}
	}).c
}

// Gauge returns the gauge named name with the given label pairs,
// creating it on first use.
func (r *Registry) Gauge(name, help string, labels ...string) *Gauge {
	return r.get(name, help, "gauge", labels, func(s *series) {
		if s.g == nil {
			s.g = &Gauge{}
		}
	}).g
}

// Histogram returns the histogram named name with the given bucket
// upper bounds and label pairs, creating it on first use. The bounds
// must be ascending; the +Inf bucket is implicit.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...string) *Histogram {
	return r.get(name, help, "histogram", labels, func(s *series) {
		if s.h == nil {
			h := &Histogram{bounds: append([]float64(nil), bounds...)}
			h.counts = make([]atomic.Int64, len(h.bounds)+1)
			s.h = h
		}
	}).h
}

// CounterFunc registers a counter whose value is collected by calling
// fn at scrape time — for sources that already keep their own monotone
// counts (e.g. transport session stats). Re-registering the same
// name+labels replaces fn.
func (r *Registry) CounterFunc(name, help string, fn func() float64, labels ...string) {
	r.get(name, help, "counter", labels, func(s *series) { s.fn = fn })
}

// get finds or creates the series and runs set on it while r.mu is still
// held, so two first callers cannot each mint a handle: the second sees
// the first's. A handle, once set, never changes, so callers may read it
// after get returns.
func (r *Registry) get(name, help, typ string, labels []string, set func(*series)) *series {
	if len(labels)%2 != 0 {
		panic("obs: odd label list for " + name)
	}
	sig := labelSig(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.fams[name]
	if f == nil {
		f = &family{name: name, help: help, typ: typ, series: make(map[string]*series)}
		r.fams[name] = f
	} else if f.typ != typ {
		panic(fmt.Sprintf("obs: %s registered as %s, requested as %s", name, f.typ, typ))
	}
	s := f.series[sig]
	if s == nil {
		s = &series{sig: sig}
		f.series[sig] = s
	}
	set(s)
	return s
}

// labelSig renders the label pairs as a stable Prometheus label block,
// pairs sorted by key, values escaped.
func labelSig(labels []string) string {
	if len(labels) == 0 {
		return ""
	}
	type kv struct{ k, v string }
	pairs := make([]kv, 0, len(labels)/2)
	for i := 0; i+1 < len(labels); i += 2 {
		pairs = append(pairs, kv{labels[i], labels[i+1]})
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].k < pairs[j].k })
	var b strings.Builder
	b.WriteByte('{')
	for i, p := range pairs {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(p.k)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(p.v))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// escapeHelp escapes a HELP string per the exposition format.
func escapeHelp(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

// WriteProm renders every family in the Prometheus text exposition
// format (version 0.0.4): families sorted by name, series sorted by
// label signature, so successive scrapes of an unchanged registry are
// byte-identical.
func (r *Registry) WriteProm(w io.Writer) error {
	// Copy every family's series under the lock: a registration may add
	// a series or replace a fn while this scrape renders.
	type snapshot struct {
		*family
		sers []*series
	}
	r.mu.Lock()
	fams := make([]snapshot, 0, len(r.fams))
	for _, f := range r.fams {
		sn := snapshot{family: f}
		for _, s := range f.series {
			c := *s
			sn.sers = append(sn.sers, &c)
		}
		fams = append(fams, sn)
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })

	var b strings.Builder
	for _, f := range fams {
		fmt.Fprintf(&b, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.typ)
		sers := f.sers
		sort.Slice(sers, func(i, j int) bool { return sers[i].sig < sers[j].sig })
		for _, s := range sers {
			switch {
			case s.h != nil:
				writeHistogram(&b, f.name, s)
			case s.fn != nil:
				fmt.Fprintf(&b, "%s%s %s\n", f.name, s.sig, formatFloat(s.fn()))
			case s.c != nil:
				fmt.Fprintf(&b, "%s%s %d\n", f.name, s.sig, s.c.Value())
			case s.g != nil:
				fmt.Fprintf(&b, "%s%s %s\n", f.name, s.sig, formatFloat(s.g.Value()))
			}
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// writeHistogram renders one histogram series: cumulative _bucket lines
// with le labels merged into the series' label block, then _sum and
// _count.
func writeHistogram(b *strings.Builder, name string, s *series) {
	h := s.h
	cum := int64(0)
	for i, bound := range h.bounds {
		cum += h.counts[i].Load()
		fmt.Fprintf(b, "%s_bucket%s %d\n", name, mergeLE(s.sig, formatFloat(bound)), cum)
	}
	cum += h.counts[len(h.bounds)].Load()
	fmt.Fprintf(b, "%s_bucket%s %d\n", name, mergeLE(s.sig, "+Inf"), cum)
	fmt.Fprintf(b, "%s_sum%s %s\n", name, s.sig, formatFloat(math.Float64frombits(h.sumBits.Load())))
	fmt.Fprintf(b, "%s_count%s %d\n", name, s.sig, h.count.Load())
}

// mergeLE appends an le label to an already-rendered label block.
func mergeLE(sig, le string) string {
	if sig == "" {
		return `{le="` + le + `"}`
	}
	return sig[:len(sig)-1] + `,le="` + le + `"}`
}

// formatFloat renders a float the way the exposition format expects.
func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
