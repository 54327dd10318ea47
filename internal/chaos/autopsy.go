package chaos

import (
	"io"
	"sort"

	"repro/internal/lockspace"
	"repro/internal/obs"
)

// writeAutopsy dumps a JSONL autopsy for a failed verdict. The failing
// assertions name their offending keys (and, for census failures, raw
// instance ids) in FirstFail; those instances' full token lineage comes
// from the attached flight recorder, and the state lines are a live
// census of the same instances across the still-running cluster. When
// no failing assertion names a key, every recorded lineage is dumped —
// an accounting failure has no single culprit.
func (d *driver) writeAutopsy(w io.Writer, res *Result) error {
	var failing, keys []string
	instSet := make(map[uint64]bool)
	for _, a := range res.Report {
		if !a.Failed() {
			continue
		}
		failing = append(failing, a.ID)
		if k, ok := a.FirstFail["key"].(string); ok {
			keys = append(keys, k)
			instSet[lockspace.KeyInstance(k)] = true
		}
		if inst, ok := a.FirstFail["instance"].(uint64); ok {
			instSet[inst] = true
		}
	}
	sort.Strings(keys)
	var insts []uint64 // nil = every recorded instance
	if len(instSet) > 0 {
		insts = make([]uint64, 0, len(instSet))
		for inst := range instSet {
			insts = append(insts, inst)
		}
		sort.Slice(insts, func(i, j int) bool { return insts[i] < insts[j] })
	}

	var states []obs.NodeState
	for i, m := range d.members {
		sp, alive := m.get()
		if !alive {
			states = append(states, obs.NodeState{Node: i, Father: -1, Note: "dead"})
			continue
		}
		rows, err := sp.Census()
		if err != nil {
			continue
		}
		for _, r := range rows {
			if len(instSet) > 0 && !instSet[r.Instance] {
				continue
			}
			if len(instSet) == 0 && !r.TokenHere && !r.Busy && !r.Held {
				continue
			}
			states = append(states, r)
		}
	}

	details := map[string]any{
		"assertions": failing,
		"drained":    res.Drained,
	}
	if len(keys) > 0 {
		details["keys"] = keys
	}
	return obs.WriteAutopsy(w, "chaos-verdict-failed", details, d.flight, insts, states)
}
