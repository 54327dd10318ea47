package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// corePath is the package that owns the effect arenas.
const corePath = "repro/internal/core"

// effectStructs are the pointer-boxed arena entries behind core.Effect:
// a driver receives *core.Send etc. pointing into the scratch arena of
// the emitting node's host, recycled wholesale at the next call into any
// node of that host (DESIGN.md §9). Holding one past the driver call
// aliases a slot that the next emission will scribble over.
var effectStructs = map[string]bool{"Send": true, "Grant": true, "StartTimer": true}

// ArenaRetainAnalyzer forbids retaining pooled arena values — the
// core.Effect interface, slices of it, and pointers to the effect
// structs — in struct fields, package-level variables, or goroutine
// closures, and forbids reading a local that holds a node call's effects
// after a later call into a core.Node: nodes minted by one core.Host
// share one scratch, so the later call — into the same instance or a
// sibling — has recycled what the local points at. Drivers must execute
// or copy effects before the next call into the emitting state machine's
// host (translate, then call); keeping the pointer instead is a
// use-after-recycle waiting for a warm arena. The owning package
// (internal/core) is exempt: filling its own arenas is the mechanism,
// and its internal discipline is pinned by CheckPools's emitter check
// and TestNewNodeAllocs.
var ArenaRetainAnalyzer = &Analyzer{
	Name: "arenaretain",
	Doc:  "forbid retaining arena-backed effect values past the driver call",
	Run:  runArenaRetain,
}

// isTransient reports whether t is an arena-lifetime type: core.Effect,
// a slice of transients, or a pointer to an effect struct.
func isTransient(t types.Type) bool {
	switch t := t.(type) {
	case *types.Slice:
		return isTransient(t.Elem())
	case *types.Pointer:
		return isNamedEffectStruct(t.Elem())
	case *types.Named:
		obj := t.Obj()
		return obj.Pkg() != nil && obj.Pkg().Path() == corePath && obj.Name() == "Effect"
	}
	return false
}

func isNamedEffectStruct(t types.Type) bool {
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == corePath && effectStructs[obj.Name()]
}

func runArenaRetain(pass *Pass) error {
	if pass.Pkg.Path() == corePath {
		return nil
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.GenDecl:
				if decl.Tok != token.VAR {
					continue
				}
				for _, spec := range decl.Specs {
					vs := spec.(*ast.ValueSpec)
					for _, name := range vs.Names {
						if v, ok := pass.Info.Defs[name].(*types.Var); ok && isTransient(v.Type()) {
							pass.Reportf(name.Pos(),
								"package-level %s holds an arena-backed effect type %s; pooled effects are valid only until the next call into the emitting node",
								name.Name, v.Type())
						}
					}
				}
			case *ast.FuncDecl:
				if decl.Body != nil {
					checkRetention(pass, decl.Body)
				}
			}
		}
	}
	return nil
}

func checkRetention(pass *Pass, body *ast.BlockStmt) {
	checkStaleAcrossCalls(pass, body)
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				if i >= len(n.Rhs) {
					break // multi-value call assignment; transient results land in idents, checked at use
				}
				tv, ok := pass.Info.Types[n.Rhs[i]]
				if !ok || !isTransient(tv.Type) {
					continue
				}
				reportRetainingLHS(pass, lhs, tv.Type)
			}
		case *ast.GoStmt:
			checkEscapingClosure(pass, n.Call, "go statement")
		}
		return true
	})
}

// reportRetainingLHS flags stores of transient values into struct
// fields or package-level variables. Local variables are fine: they die
// with the driver call.
func reportRetainingLHS(pass *Pass, lhs ast.Expr, t types.Type) {
	switch lhs := lhs.(type) {
	case *ast.SelectorExpr:
		sel := pass.Info.Selections[lhs]
		if sel != nil && sel.Kind() == types.FieldVal {
			pass.Reportf(lhs.Pos(),
				"arena-backed effect value (%s) stored in struct field %s outlives the driver call; copy the effect's data instead",
				t, types.ExprString(lhs))
			return
		}
		// Qualified package-level var (pkg.Var = eff).
		if id, ok := lhs.X.(*ast.Ident); ok {
			if _, isPkg := pass.Info.Uses[id].(*types.PkgName); isPkg {
				pass.Reportf(lhs.Pos(),
					"arena-backed effect value (%s) stored in package-level %s outlives the driver call",
					t, types.ExprString(lhs))
			}
		}
	case *ast.Ident:
		if v, ok := pass.Info.Uses[lhs].(*types.Var); ok && v.Parent() == pass.Pkg.Scope() {
			pass.Reportf(lhs.Pos(),
				"arena-backed effect value (%s) stored in package-level %s outlives the driver call",
				t, lhs.Name)
		}
	case *ast.IndexExpr:
		// Storing into an element of an outer slice/map: flag when the
		// container itself is a field or global (x.buf[i] = eff).
		reportRetainingLHS(pass, lhs.X, t)
	}
}

// checkEscapingClosure flags function literals launched as goroutines
// that capture transient-typed variables: the goroutine races the arena
// recycle by construction.
func checkEscapingClosure(pass *Pass, call *ast.CallExpr, how string) {
	lit, ok := call.Fun.(*ast.FuncLit)
	if !ok {
		return
	}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := pass.Info.Uses[id].(*types.Var)
		if !ok || !isTransient(v.Type()) {
			return true
		}
		// Captured, not closure-local: declared before the literal.
		if v.Pos() < lit.Pos() {
			pass.Reportf(id.Pos(),
				"arena-backed effect %s captured by a %s escapes the driver call that owns its storage",
				id.Name, how)
		}
		return true
	})
}

// isNodeEntryCall reports whether call is a method call on a *core.Node
// that returns arena-backed effects — HandleMessage, HandleTimer,
// RequestCS, ReleaseCS, Recover: the calls that begin a new accumulation
// cycle in the node's host and so expire every effect handed out before.
func isNodeEntryCall(pass *Pass, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	s := pass.Info.Selections[sel]
	if s == nil || s.Kind() != types.MethodVal {
		return false
	}
	recv := s.Recv()
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	named, ok := recv.(*types.Named)
	if !ok || named.Obj().Pkg() == nil || named.Obj().Pkg().Path() != corePath || named.Obj().Name() != "Node" {
		return false
	}
	res := s.Type().(*types.Signature).Results()
	for i := 0; i < res.Len(); i++ {
		if isTransient(res.At(i).Type()) {
			return true
		}
	}
	return false
}

// checkStaleAcrossCalls flags a read of a local holding one node call's
// effects once a later node call has completed. The check is positional
// within one function body — a read is judged against the latest
// assignment of the variable that precedes it in the source — which is
// exact for the straight-line translate-then-call shape drivers use and
// errs towards silence across loop back-edges.
func checkStaleAcrossCalls(pass *Pass, body *ast.BlockStmt) {
	type assignment struct{ pos, end token.Pos }
	assigned := map[*types.Var][]assignment{} // locals assigned from a node entry call
	var entries []*ast.CallExpr
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if isNodeEntryCall(pass, n) {
				entries = append(entries, n)
			}
		case *ast.AssignStmt:
			if len(n.Rhs) != 1 {
				return true
			}
			call, ok := n.Rhs[0].(*ast.CallExpr)
			if !ok || !isNodeEntryCall(pass, call) {
				return true
			}
			for _, lhs := range n.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok {
					continue
				}
				obj := pass.Info.Defs[id]
				if obj == nil {
					obj = pass.Info.Uses[id]
				}
				if v, ok := obj.(*types.Var); ok && isTransient(v.Type()) && v.Parent() != pass.Pkg.Scope() {
					assigned[v] = append(assigned[v], assignment{n.Pos(), n.End()})
				}
			}
		}
		return true
	})
	if len(assigned) == 0 || len(entries) < 2 {
		return
	}
	ast.Inspect(body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := pass.Info.Uses[id].(*types.Var)
		if !ok {
			return true
		}
		var last *assignment
		for i, a := range assigned[v] {
			if a.end <= id.Pos() && (last == nil || a.pos > last.pos) {
				last = &assigned[v][i]
			}
		}
		if last == nil {
			return true
		}
		for _, call := range entries {
			if call.Pos() >= last.end && call.End() <= id.Pos() {
				pass.Reportf(id.Pos(),
					"%s holds effects of an earlier node call, but %s has since recycled the scratch every node of its host shares; execute or copy the effects before calling into a node again",
					id.Name, types.ExprString(call.Fun))
				return true
			}
		}
		return true
	})
}
