package obs

import (
	"encoding/json"
	"io"
)

// NodeState is one node's per-instance state, the row of a census and the
// state line of an autopsy dump: enough of the open-cube bookkeeping
// (father pointer, token presence, pending request, search in flight,
// protocol queue, epoch) and of the lock service in front of it (a hold,
// the local waiters) to reconstruct why a key is wedged without attaching
// a debugger. lockspace.Machine.States is what fills one in.
type NodeState struct {
	Node      int    `json:"node"`
	Instance  uint64 `json:"instance,omitempty"`
	Father    int    `json:"father"` // -1: a root
	TokenHere bool   `json:"token_here"`
	Asking    bool   `json:"asking"`
	InCS      bool   `json:"in_cs"`
	Searching bool   `json:"searching"`
	QueueLen  int    `json:"queue_len"` // the protocol's deferred work
	Epoch     uint32 `json:"epoch"`
	Busy      bool   `json:"busy,omitempty"`    // protocol activity outstanding
	Held      bool   `json:"held,omitempty"`    // a local client holds the lock
	Waiters   int    `json:"waiters,omitempty"` // local clients queued, holder included
	Note      string `json:"note,omitempty"`
}

// autopsyHeader is the first JSONL line of a dump.
type autopsyHeader struct {
	Rec       string         `json:"rec"`
	Reason    string         `json:"reason"`
	Instances []uint64       `json:"instances,omitempty"`
	Details   map[string]any `json:"details,omitempty"`
}

// autopsyEvent is one lineage line.
type autopsyEvent struct {
	Rec string `json:"rec"`
	Event
}

// autopsyState is one node-state line.
type autopsyState struct {
	Rec string `json:"rec"`
	NodeState
}

// WriteAutopsy dumps a failure autopsy as JSONL: a header line carrying
// the reason and free-form details, one "lineage" line per recorded
// flight event of each listed instance (oldest-first), and one "state"
// line per captured node state. insts nil means every instance the
// recorder has seen; fl nil skips lineage entirely. The format is
// line-oriented so partial dumps from a dying process stay parseable.
func WriteAutopsy(w io.Writer, reason string, details map[string]any, fl *Flight, insts []uint64, states []NodeState) error {
	if fl != nil && insts == nil {
		insts = fl.Instances()
	}
	enc := json.NewEncoder(w)
	if err := enc.Encode(autopsyHeader{Rec: "autopsy", Reason: reason, Instances: insts, Details: details}); err != nil {
		return err
	}
	if fl != nil {
		for _, inst := range insts {
			for _, ev := range fl.Dump(inst) {
				if err := enc.Encode(autopsyEvent{Rec: "lineage", Event: ev}); err != nil {
					return err
				}
			}
		}
	}
	for _, st := range states {
		if err := enc.Encode(autopsyState{Rec: "state", NodeState: st}); err != nil {
			return err
		}
	}
	return nil
}
