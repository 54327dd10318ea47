// Package trace tallies message traffic for the experiment harness.
//
// The recorder is algorithm-agnostic (the open-cube algorithm and the
// Raymond / Naimi-Trehel baselines all report through it): it counts
// every sent message by kind and by the requester it serves. Overhead is
// the paper's control traffic: failure-handling messages (test, answer,
// enquiry, anomaly, acknowledgments) plus re-issued requests, the quantity
// reported per failure in Section 6.
package trace

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/core"
)

// Recorder tallies sent messages. The zero value is ready to use. It is
// not safe for concurrent use: each recorder belongs to one simulated
// network, which runs on one goroutine.
type Recorder struct {
	total    int64
	byKind   [256]int64 // indexed by core.Kind
	reissued int64      // requests re-issued by failure recovery
	bySource []int64    // request and token messages per requester
}

// Count tallies one sent message.
func (r *Recorder) Count(m core.Message) {
	r.total++
	r.byKind[m.Kind]++
	if m.Kind != core.KindRequest && m.Kind != core.KindToken {
		return
	}
	if m.Kind == core.KindRequest && m.Regen {
		r.reissued++
	}
	if s := int(m.Source); s >= 0 {
		if s >= len(r.bySource) {
			r.bySource = append(r.bySource, make([]int64, s+1-len(r.bySource))...)
		}
		r.bySource[s]++
	}
}

// Total returns the number of recorded messages.
func (r *Recorder) Total() int64 { return r.total }

// Kind returns the count for one message kind, by its core.Kind name.
func (r *Recorder) Kind(name string) int64 {
	for k, n := range r.byKind {
		if n != 0 && core.Kind(k).String() == name {
			return n
		}
	}
	return 0
}

// Source returns the number of request and token messages serving one
// requester.
func (r *Recorder) Source(s int) int64 {
	if s < 0 || s >= len(r.bySource) {
		return 0
	}
	return r.bySource[s]
}

// Overhead returns the paper's per-failure overhead numerator: every
// message that is neither a request nor a token, plus the re-issued
// requests.
func (r *Recorder) Overhead() int64 {
	return r.total - r.byKind[core.KindRequest] - r.byKind[core.KindToken] + r.reissued
}

// String summarizes the tallies, kinds sorted alphabetically.
func (r *Recorder) String() string {
	var kinds []core.Kind
	for k, n := range r.byKind {
		if n != 0 {
			kinds = append(kinds, core.Kind(k))
		}
	}
	slices.SortFunc(kinds, func(a, b core.Kind) int { return strings.Compare(a.String(), b.String()) })
	var b strings.Builder
	fmt.Fprintf(&b, "total=%d", r.total)
	for _, k := range kinds {
		fmt.Fprintf(&b, " %s=%d", k, r.byKind[k])
	}
	return b.String()
}
