// Package props is the standing property suite of the live lock
// service: Antithesis-style always/sometimes assertions expressed
// against a local collector, plus the lock-specific property set
// (per-key mutual exclusion, fence admission through a fence-checked
// ledger, at most one live token at rest, request/grant accounting,
// bounded reclaim latency) that the chaos harness, the live-path tests
// and CI all evaluate through the same code. Mutual exclusion is decided
// by metrics.Holds, the accountant sim.Network and lockspace.Space count
// through too: LockProps enters every grant and exits every outcome.
//
// The assertion vocabulary follows the SDK the Filecoin-Antithesis rig
// uses — Always must hold at every evaluation, Sometimes must hold at
// least once per run, Reachable marks code paths a good run visits — but
// the backend here is a plain in-process Collector with no external
// dependency, so the same assertions run in go test, in the CI chaos
// smoke job, and (later) under a deterministic-hypervisor runner that
// swaps the collector for the real SDK.
package props

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Kind classifies an assertion.
type Kind uint8

const (
	// Always assertions must hold at every evaluation; one false
	// evaluation fails the run.
	Always Kind = iota + 1
	// Sometimes assertions must hold at least once per run; never
	// evaluating to true is a coverage failure (gated under -strict).
	Sometimes
	// Reachable marks a code path at least one execution should visit;
	// it is a Sometimes assertion whose evaluation is the visit itself.
	Reachable
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case Always:
		return "always"
	case Sometimes:
		return "sometimes"
	case Reachable:
		return "reachable"
	}
	return fmt.Sprintf("kind(%d)", k)
}

// Details carries the structured context of an Always evaluation — the
// values that make a failure diagnosable without re-running. Sometimes
// and Reachable take none: only their counts are reported.
type Details map[string]any

// String renders the details as sorted key=value pairs, so failure
// output is stable across runs.
func (d Details) String() string {
	if len(d) == 0 {
		return ""
	}
	keys := make([]string, 0, len(d))
	for k := range d {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, 0, len(keys))
	for _, k := range keys {
		parts = append(parts, fmt.Sprintf("%s=%v", k, d[k]))
	}
	return strings.Join(parts, " ")
}

// Assertion is the per-property outcome a Collector reports.
type Assertion struct {
	ID     string
	Kind   Kind
	Passes int64
	Fails  int64
	// FirstFail holds the details of the first failing evaluation of an
	// Always assertion (nil while none).
	FirstFail Details
}

// Failed reports whether the assertion's contract is broken: an Always
// with a false evaluation.
func (a Assertion) Failed() bool { return a.Kind == Always && a.Fails > 0 }

// Unreached reports whether a Sometimes/Reachable assertion was never
// satisfied — the coverage gap -strict turns into a failure.
func (a Assertion) Unreached() bool {
	switch a.Kind {
	case Sometimes, Reachable:
		return a.Passes == 0
	}
	return false
}

type state struct {
	kind      Kind
	passes    int64
	fails     int64
	firstFail Details
}

// Collector is the local assertion backend: concurrency-safe, cheap on
// the hot path (one mutex, no allocation on pass), and queryable at the
// end of a run. The zero value is ready to use.
type Collector struct {
	mu    sync.Mutex
	order []string
	m     map[string]*state
}

func (c *Collector) get(id string, kind Kind) *state {
	if c.m == nil {
		c.m = make(map[string]*state)
	}
	s := c.m[id]
	if s == nil {
		s = &state{kind: kind}
		c.m[id] = s
		c.order = append(c.order, id)
	}
	return s
}

// Declare registers an assertion before any evaluation, so a property
// that is never exercised still appears in the report (and an unreached
// Sometimes is a visible coverage gap rather than a silently absent
// row). Declaring an already-known id is a no-op.
func (c *Collector) Declare(kind Kind, id string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.get(id, kind)
}

// Always evaluates an always-assertion: cond must be true at every call.
// It returns cond so call sites can branch on the verdict.
func (c *Collector) Always(id string, cond bool, d Details) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.get(id, Always)
	if cond {
		s.passes++
	} else {
		s.fails++
		if s.firstFail == nil {
			if d == nil {
				d = Details{}
			}
			s.firstFail = d
		}
	}
	return cond
}

// Sometimes evaluates a sometimes-assertion: cond must be true on at
// least one call per run.
func (c *Collector) Sometimes(id string, cond bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.get(id, Sometimes)
	if cond {
		s.passes++
	} else {
		s.fails++
	}
}

// Reachable marks the calling path as reached.
func (c *Collector) Reachable(id string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.get(id, Reachable).passes++
}

// Report snapshots every assertion in declaration order.
func (c *Collector) Report() []Assertion {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Assertion, 0, len(c.order))
	for _, id := range c.order {
		s := c.m[id]
		out = append(out, Assertion{
			ID: id, Kind: s.kind,
			Passes: s.passes, Fails: s.fails,
			FirstFail: s.firstFail,
		})
	}
	return out
}

// Coverage returns reached/declared over the Sometimes and Reachable
// assertions (1 when none are declared).
func (c *Collector) Coverage() float64 {
	var declared, reached int
	for _, a := range c.Report() {
		if a.Kind == Sometimes || a.Kind == Reachable {
			declared++
			if !a.Unreached() {
				reached++
			}
		}
	}
	if declared == 0 {
		return 1
	}
	return float64(reached) / float64(declared)
}

// Err folds the report into a verdict: any failed Always is
// an error; with strict set, any unreached Sometimes/Reachable is too.
func (c *Collector) Err(strict bool) error {
	var fails, unreached []string
	for _, a := range c.Report() {
		if a.Failed() {
			fails = append(fails, fmt.Sprintf("%s (%s, %d/%d failed; first: %s)",
				a.ID, a.Kind, a.Fails, a.Passes+a.Fails, a.FirstFail))
		}
		if strict && a.Unreached() {
			unreached = append(unreached, fmt.Sprintf("%s (%s)", a.ID, a.Kind))
		}
	}
	if len(fails) > 0 {
		return fmt.Errorf("props: assertion failures: %s", strings.Join(fails, "; "))
	}
	if len(unreached) > 0 {
		return fmt.Errorf("props: unreached assertions: %s", strings.Join(unreached, "; "))
	}
	return nil
}

// Format renders the report as an aligned table for run summaries.
func Format(rep []Assertion) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-34s %-11s %9s %7s  %s\n", "assertion", "kind", "passes", "fails", "verdict")
	for _, a := range rep {
		verdict := "ok"
		switch {
		case a.Failed():
			verdict = "FAILED"
			if a.FirstFail != nil {
				verdict += " [" + a.FirstFail.String() + "]"
			}
		case a.Unreached():
			verdict = "unreached"
		}
		fmt.Fprintf(&b, "%-34s %-11s %9d %7d  %s\n", a.ID, a.Kind, a.Passes, a.Fails, verdict)
	}
	return b.String()
}
