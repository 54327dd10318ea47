package lint

import "go/ast"

// perEventTimers are the time package's fire-and-forget timers: each
// call is a runtime timer (and for AfterFunc a closure, later a
// goroutine) nothing can stop, which keeps whatever it captured
// reachable until it fires.
var perEventTimers = map[string]bool{"AfterFunc": true, "After": true}

// LooptimerAnalyzer keeps per-event runtime timers out of the live loops
// (DESIGN.md §12, §16). The lockspace node loop and the transport
// session loop each own one time.Timer, aimed at the earliest deadline
// they hold; a time.AfterFunc or time.After per protocol timer, lease
// check or retransmission is what once made a closed node — and every
// instance it hosted — outlive its Close by a suspicion delay or a
// lease, and the live RSS grow with grants served. The rule covers the
// //ocmxvet:live files of every package (the deterministic files may not
// touch the clock at all — see determinism); time.NewTimer, a loop's
// own, stays legal.
var LooptimerAnalyzer = &Analyzer{
	Name: "looptimer",
	Doc:  "a live loop owns one time.Timer: no time.AfterFunc/time.After in //ocmxvet:live files",
	Run:  runLooptimer,
}

func runLooptimer(pass *Pass) error {
	for _, f := range pass.Files {
		if live, _ := filePragmas(pass.Fset, pass.Files, f.Pos()); !live {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok || !perEventTimers[sel.Sel.Name] {
				return true
			}
			if selectedPkg(pass, sel) == "time" {
				pass.Reportf(sel.Pos(),
					"time.%s arms a runtime timer per event that nothing stops and Close cannot drop; aim the loop's one timer at the deadline instead",
					sel.Sel.Name)
			}
			return true
		})
	}
	return nil
}
