package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// NilsafeAnalyzer keeps the hook side of the zero-cost-when-off
// observability contract (DESIGN.md §14) honest: every call of the
// core.Config.Observe function field, and every read of the
// chaos.Config.Autopsy / harness.Options.Autopsy writers, must be
// dominated by a nil check of that same expression in the enclosing
// function (an enclosing `if x != nil` block or an early
// `if x == nil { return }`). The metric side — every obs handle method
// callable on a nil receiver — is obs's TestNilReceivers.
var NilsafeAnalyzer = &Analyzer{
	Name: "nilsafe",
	Doc:  "Observe/Autopsy hooks are nil-guarded",
	Run:  runNilsafe,
}

// guardedHooks are the optional hook fields whose uses must be
// nil-guarded, keyed by owning package path and struct/field name.
var guardedHooks = []struct {
	pkgPath, typeName, fieldName string
	calls                        bool // true: calls only; false: any read
}{
	{"repro/internal/core", "Config", "Observe", true},
	{"repro/internal/chaos", "Config", "Autopsy", false},
	{"repro/internal/harness", "Options", "Autopsy", false},
}

func runNilsafe(pass *Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			checkGuardedHooks(pass, fn)
		}
	}
	return nil
}

func isNilIdent(pass *Pass, e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	if !ok {
		return false
	}
	_, isNil := pass.Info.Uses[id].(*types.Nil)
	return isNil
}

// terminates reports whether the block's last statement leaves the
// function (return or panic).
func terminates(b *ast.BlockStmt) bool {
	if len(b.List) == 0 {
		return false
	}
	switch last := b.List[len(b.List)-1].(type) {
	case *ast.ReturnStmt:
		return true
	case *ast.ExprStmt:
		call, ok := last.X.(*ast.CallExpr)
		if !ok {
			return false
		}
		id, ok := call.Fun.(*ast.Ident)
		return ok && id.Name == "panic"
	}
	return false
}

// guardRegion is a source range within which chain is known non-nil.
type guardRegion struct {
	chain      string
	start, end token.Pos
}

// checkGuardedHooks verifies every hook-field use in fn sits inside a
// nil-guarded region.
func checkGuardedHooks(pass *Pass, fn *ast.FuncDecl) {
	var guards []guardRegion
	// comparands are reads that ARE a nil check (x in `x != nil`); the
	// check itself needs no guard.
	comparands := map[ast.Expr]bool{}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if bin, ok := n.(*ast.BinaryExpr); ok && (bin.Op == token.EQL || bin.Op == token.NEQ) {
			if isNilIdent(pass, bin.Y) {
				comparands[bin.X] = true
			}
			if isNilIdent(pass, bin.X) {
				comparands[bin.Y] = true
			}
		}
		ifs, ok := n.(*ast.IfStmt)
		if !ok {
			return true
		}
		// `if chain != nil { guarded }` — the check may be one conjunct
		// of a && chain.
		for _, chain := range nonNilChains(pass, ifs.Cond) {
			guards = append(guards, guardRegion{chain, ifs.Body.Pos(), ifs.Body.End()})
		}
		// `if chain == nil { return }` guards the rest of the function;
		// `if chain == nil { ... } else { guarded }` guards the else arm.
		if bin, ok := ifs.Cond.(*ast.BinaryExpr); ok && bin.Op == token.EQL {
			if chain, ok := nilComparand(pass, bin); ok {
				if terminates(ifs.Body) {
					guards = append(guards, guardRegion{chain, ifs.End(), fn.Body.End()})
				}
				if ifs.Else != nil {
					guards = append(guards, guardRegion{chain, ifs.Else.Pos(), ifs.Else.End()})
				}
			}
		}
		return true
	})

	lhsWrites := assignTargets(fn.Body)
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		hook, isCallOnly := hookField(pass, sel)
		if hook == "" {
			return true
		}
		if isCallOnly && !calledIn(fn.Body, sel) {
			return true // taking the func value is fine; only invoking a nil one panics
		}
		if lhsWrites[sel] || comparands[sel] {
			return true // writing or nil-testing the field needs no guard
		}
		chain := types.ExprString(sel)
		for _, g := range guards {
			if g.chain == chain && g.start <= sel.Pos() && sel.Pos() <= g.end {
				return true
			}
		}
		pass.Reportf(sel.Pos(),
			"%s used without a dominating `%s != nil` guard; the hook is optional and nil when observability is off",
			chain, chain)
		return true
	})
}

// hookField reports the matched hook's field name ("" when sel is not a
// guarded hook field) and whether only calls of it are checked.
func hookField(pass *Pass, sel *ast.SelectorExpr) (string, bool) {
	s := pass.Info.Selections[sel]
	if s == nil || s.Kind() != types.FieldVal {
		return "", false
	}
	recv := s.Recv()
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	named, ok := recv.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return "", false
	}
	for _, h := range guardedHooks {
		if named.Obj().Pkg().Path() == h.pkgPath &&
			named.Obj().Name() == h.typeName && sel.Sel.Name == h.fieldName {
			return h.fieldName, h.calls
		}
	}
	return "", false
}

// nonNilChains extracts the `x != nil` comparands of cond, descending
// through && conjunctions only (an || arm does not dominate the body).
func nonNilChains(pass *Pass, cond ast.Expr) []string {
	bin, ok := cond.(*ast.BinaryExpr)
	if !ok {
		return nil
	}
	switch bin.Op {
	case token.LAND:
		return append(nonNilChains(pass, bin.X), nonNilChains(pass, bin.Y)...)
	case token.NEQ:
		if chain, ok := nilComparand(pass, bin); ok {
			return []string{chain}
		}
	}
	return nil
}

// nilComparand returns the textual form of the non-nil side of a
// comparison against nil.
func nilComparand(pass *Pass, bin *ast.BinaryExpr) (string, bool) {
	if isNilIdent(pass, bin.Y) {
		return types.ExprString(bin.X), true
	}
	if isNilIdent(pass, bin.X) {
		return types.ExprString(bin.Y), true
	}
	return "", false
}

// assignTargets collects the exact expression nodes appearing as
// assignment LHS in body.
func assignTargets(body *ast.BlockStmt) map[ast.Expr]bool {
	out := map[ast.Expr]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		if as, ok := n.(*ast.AssignStmt); ok {
			for _, lhs := range as.Lhs {
				out[lhs] = true
			}
		}
		return true
	})
	return out
}

// calledIn reports whether sel appears as the Fun of a call expression
// in body.
func calledIn(body *ast.BlockStmt, sel *ast.SelectorExpr) bool {
	called := false
	ast.Inspect(body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && call.Fun == sel {
			called = true
		}
		return !called
	})
	return called
}
