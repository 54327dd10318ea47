package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// heldPhrase is how a function of the live lockspace says it runs inside
// a step: its doc comment contains these words, wherever the lines break.
const heldPhrase = "caller holds ls.mu"

// HeldblockAnalyzer keeps waiting out of the steps of the live lockspace
// node (DESIGN.md §16). A node is stepped under its one mutex by whoever
// has the input — a client call, the loop with a received burst or a
// fired timer — so a function that runs with ls.mu held and waits for
// another goroutine stalls every client of the node, and one that takes
// the mutex again deadlocks it. In the //ocmxvet:live files of a package
// named lockspace, a function whose doc comment says the caller holds
// ls.mu may therefore contain no channel send or receive outside a
// select with a default, no select without one, no range over a channel,
// no time.Sleep and no .mu.Lock(). The step bodies are the methods of the
// keyed node, lockspace.Machine, which say nothing about a mutex they never
// see: every method of Machine is held to the same rule, in whatever file,
// whatever its doc comment says. Function literals are not followed: what
// they do happens when they are called. The one call a step makes out of
// the package — the transport's SendBatch, in end — is a method call on an
// interface and outside what source can show; its contract (BatchTransport:
// it does not wait for the peer) and the lockspace's
// TestCutPeerDoesNotParkCallers keep waiting out of it.
var HeldblockAnalyzer = &Analyzer{
	Name: "heldblock",
	Doc:  "a live lockspace function documented \"the caller holds ls.mu\", and every method of lockspace.Machine, does not block: no channel wait, select without default, time.Sleep or .mu.Lock()",
	Run:  runHeldblock,
}

func runHeldblock(pass *Pass) error {
	if pass.Pkg.Name() != "lockspace" {
		return nil
	}
	for _, f := range pass.Files {
		live, _ := filePragmas(pass.Fset, pass.Files, f.Pos())
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			held := live && fn.Doc != nil && strings.Contains(strings.Join(strings.Fields(fn.Doc.Text()), " "), heldPhrase)
			machine := fn.Recv != nil && strings.TrimPrefix(exprString(fn.Recv.List[0].Type), "*") == "Machine"
			if held || machine {
				heldWalk(pass, fn.Name.Name, fn.Body)
			}
		}
	}
	return nil
}

// heldWalk reports what may block in n, part of the body of fn.
func heldWalk(pass *Pass, fn string, n ast.Node) {
	report := func(pos token.Pos, what string) {
		pass.Reportf(pos, "%s in %s, which runs with ls.mu held: a step never waits for another goroutine", what, fn)
	}
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.SelectStmt:
			polls := false
			for _, c := range n.Body.List {
				polls = polls || c.(*ast.CommClause).Comm == nil
			}
			if !polls {
				report(n.Pos(), "select without default")
			}
			// The communications of a select are judged with it; what its
			// clauses then do is ordinary code.
			for _, c := range n.Body.List {
				for _, s := range c.(*ast.CommClause).Body {
					heldWalk(pass, fn, s)
				}
			}
			return false
		case *ast.SendStmt:
			report(n.Pos(), "channel send")
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				report(n.Pos(), "channel receive")
			}
		case *ast.RangeStmt:
			if tv, ok := pass.Info.Types[n.X]; ok {
				if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
					report(n.Pos(), "range over a channel")
				}
			}
		case *ast.CallExpr:
			sel, ok := n.Fun.(*ast.SelectorExpr)
			if !ok {
				break
			}
			if sel.Sel.Name == "Sleep" && selectedPkg(pass, sel) == "time" {
				report(n.Pos(), "time.Sleep")
			}
			if field, ok := sel.X.(*ast.SelectorExpr); ok && sel.Sel.Name == "Lock" && field.Sel.Name == "mu" {
				report(n.Pos(), exprString(sel)+"()")
			}
		}
		return true
	})
}
