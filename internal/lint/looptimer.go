package lint

import "go/ast"

// perEventTimers are the time package's fire-and-forget timers: each
// call is a runtime timer (and for AfterFunc a closure, later a
// goroutine) nothing can stop, which keeps whatever it captured
// reachable until it fires.
var perEventTimers = map[string]bool{"AfterFunc": true, "After": true}

// LooptimerAnalyzer keeps per-event runtime timers out of the live
// lockspace node loop (DESIGN.md §16). The loop owns one time.Timer under
// one deadline heap; a time.AfterFunc or time.After per protocol timer or
// lease check is what once made a closed node — and every instance it
// hosted — outlive its Close by a suspicion delay or a lease, and the
// live RSS grow with grants served. The rule covers the //ocmxvet:live
// files of a package named lockspace (the deterministic files may not
// touch the clock at all — see determinism); time.NewTimer, the loop's
// own, stays legal.
var LooptimerAnalyzer = &Analyzer{
	Name: "looptimer",
	Doc:  "the live lockspace loop owns one time.Timer: no time.AfterFunc/time.After in its //ocmxvet:live files",
	Run:  runLooptimer,
}

func runLooptimer(pass *Pass) error {
	if pass.Pkg.Name() != "lockspace" {
		return nil
	}
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
					"time.%s arms a runtime timer per event that nothing stops and Close cannot drop; schedule the deadline in the loop's wheel",
					sel.Sel.Name)
			}
			return true
		})
	}
	return nil
}
