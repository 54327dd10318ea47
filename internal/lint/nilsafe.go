package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// NilsafeAnalyzer keeps the zero-cost-when-off observability contract
// (DESIGN.md §14) honest on both sides of the hook seam:
//
//   - in package obs, every method on Counter, Gauge and Histogram that
//     touches its receiver must open with a nil-receiver guard, so call
//     sites never need an "is obs enabled" branch of their own;
//   - every call of the core.Config.Observe function field, and every
//     read of the chaos.Config.Autopsy / harness.Options.Autopsy writers,
//     must be dominated by a nil check of that same expression in the
//     enclosing function (an enclosing `if x != nil` block or an early
//     `if x == nil { return }`).
var NilsafeAnalyzer = &Analyzer{
	Name: "nilsafe",
	Doc:  "obs metric methods tolerate nil receivers; Observe/Autopsy hooks are nil-guarded",
	Run:  runNilsafe,
}

// nilReceiverTypes are the obs metric types whose methods form the
// always-callable surface.
var nilReceiverTypes = map[string]bool{"Counter": true, "Gauge": true, "Histogram": true}

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
	if pass.Pkg.Name() == "obs" {
		checkNilReceivers(pass)
	}
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

// checkNilReceivers enforces the guard-first shape on the metric types'
// pointer-receiver methods.
func checkNilReceivers(pass *Pass) {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Recv == nil || fn.Body == nil || len(fn.Recv.List) == 0 {
				continue
			}
			field := fn.Recv.List[0]
			star, ok := field.Type.(*ast.StarExpr)
			if !ok {
				continue // value receiver: cannot be nil
			}
			id, ok := star.X.(*ast.Ident)
			if !ok || !nilReceiverTypes[id.Name] {
				continue
			}
			if len(field.Names) == 0 || field.Names[0].Name == "_" {
				continue // receiver unused: trivially nil-safe
			}
			recv := pass.Info.Defs[field.Names[0]]
			if recv == nil || !usesObject(pass, fn.Body, recv) {
				continue
			}
			if !startsWithNilGuard(pass, fn, recv) {
				pass.Reportf(fn.Name.Pos(),
					"method (*%s).%s dereferences its receiver without a leading nil guard; every obs metric method must be callable on a nil receiver",
					id.Name, fn.Name.Name)
			}
		}
	}
}

// startsWithNilGuard reports whether the method body's first statement
// is `if recv == nil { return ... }`.
func startsWithNilGuard(pass *Pass, fn *ast.FuncDecl, recv types.Object) bool {
	if len(fn.Body.List) == 0 {
		return false
	}
	ifs, ok := fn.Body.List[0].(*ast.IfStmt)
	if !ok || ifs.Init != nil {
		return false
	}
	bin, ok := ifs.Cond.(*ast.BinaryExpr)
	if !ok || bin.Op != token.EQL {
		return false
	}
	if !isNilCheckOf(pass, bin, recv) {
		return false
	}
	return terminates(ifs.Body)
}

func isNilCheckOf(pass *Pass, bin *ast.BinaryExpr, recv types.Object) bool {
	matches := func(e ast.Expr) bool {
		id, ok := e.(*ast.Ident)
		return ok && pass.Info.Uses[id] == recv
	}
	return matches(bin.X) && isNilIdent(pass, bin.Y) || matches(bin.Y) && isNilIdent(pass, bin.X)
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

func usesObject(pass *Pass, body *ast.BlockStmt, obj types.Object) bool {
	used := false
	ast.Inspect(body, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && pass.Info.Uses[id] == obj {
			used = true
		}
		return !used
	})
	return used
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
