package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// MapiterAnalyzer flags ranging over a map with an order-sensitive loop
// body: one that prints, writes to an io.Writer/strings.Builder, sends
// on a channel, emits protocol effects, or collects into a slice that
// is never deterministically sorted afterwards. Go randomizes map
// iteration order per run, so any of these turns a replayable execution
// into a per-process one — the exact bug class the PR 1 seeded-replay
// fix and the PR 8 byte-identity CI gates exist to catch, moved to the
// line that introduces it.
//
// Order-insensitive bodies stay legal: writes keyed by the loop
// variable into another map, delete calls, commutative accumulation
// (sums, counters, max), and collection followed by a sort.* /
// slices.Sort* call on the collected slice later in the same function.
var MapiterAnalyzer = &Analyzer{
	Name: "mapiter",
	Doc:  "flag order-sensitive map iteration without a subsequent deterministic sort",
	Run:  runMapiter,
}

// outputCalls are the fmt entry points that emit directly.
var outputCalls = map[string]bool{
	"Print": true, "Printf": true, "Println": true,
	"Fprint": true, "Fprintf": true, "Fprintln": true,
}

// writerMethods are methods that append to an output stream; calling
// one inside a map loop interleaves map order into the stream.
var writerMethods = map[string]bool{
	"Write": true, "WriteString": true, "WriteByte": true, "WriteRune": true,
}

func runMapiter(pass *Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			checkMapRanges(pass, fn.Body)
		}
	}
	return nil
}

func checkMapRanges(pass *Pass, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		rs, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		tv, ok := pass.Info.Types[rs.X]
		if !ok {
			return true
		}
		if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
			return true
		}
		checkMapBody(pass, body, rs)
		return true
	})
}

// checkMapBody inspects one map-range body for order-sensitive
// operations. fnBody is the enclosing function body, searched for a
// sort of the collected slices after the loop.
func checkMapBody(pass *Pass, fnBody *ast.BlockStmt, rs *ast.RangeStmt) {
	// collected maps a slice variable appended to inside the loop to the
	// position of its first append.
	collected := map[*types.Var]token.Pos{}
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SendStmt:
			pass.Reportf(n.Pos(),
				"channel send inside iteration over map %s publishes values in randomized map order",
				exprString(rs.X))
		case *ast.CallExpr:
			checkMapBodyCall(pass, rs, n, collected)
		}
		return true
	})
	for v, pos := range collected {
		if !sortedAfter(pass, fnBody, rs, v) {
			pass.Reportf(pos,
				"iteration over map %s collects into %s in randomized map order; sort it afterwards (sort.* / slices.Sort*)",
				exprString(rs.X), v.Name())
		}
	}
}

func checkMapBodyCall(pass *Pass, rs *ast.RangeStmt, call *ast.CallExpr, collected map[*types.Var]token.Pos) {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		if fun.Name != "append" || len(call.Args) == 0 {
			return
		}
		if _, isBuiltin := pass.Info.Uses[fun].(*types.Builtin); !isBuiltin {
			return
		}
		// Only a slice declared outside the loop survives it; an append
		// to a loop-local accumulates nothing across iterations.
		id, ok := call.Args[0].(*ast.Ident)
		if !ok {
			return
		}
		v, ok := pass.Info.Uses[id].(*types.Var)
		if !ok || v.Pos() == token.NoPos {
			return
		}
		if rs.Pos() <= v.Pos() && v.Pos() <= rs.End() {
			return
		}
		if _, seen := collected[v]; !seen {
			collected[v] = call.Pos()
		}
	case *ast.SelectorExpr:
		name := fun.Sel.Name
		if id, ok := fun.X.(*ast.Ident); ok {
			if pn, ok := pass.Info.Uses[id].(*types.PkgName); ok {
				if pn.Imported().Path() == "fmt" && outputCalls[name] {
					pass.Reportf(call.Pos(),
						"fmt.%s inside iteration over map %s emits in randomized map order",
						name, exprString(rs.X))
				}
				return
			}
		}
		// Method calls: stream writers and effect emission.
		if pass.Info.Selections[fun] == nil {
			return
		}
		switch {
		case writerMethods[name]:
			pass.Reportf(call.Pos(),
				"%s.%s inside iteration over map %s writes in randomized map order",
				exprString(fun.X), name, exprString(rs.X))
		case strings.HasPrefix(name, "Send") || strings.HasPrefix(name, "Emit"):
			pass.Reportf(call.Pos(),
				"%s.%s inside iteration over map %s emits effects in randomized map order",
				exprString(fun.X), name, exprString(rs.X))
		}
	}
}

// sortedAfter reports whether a sort.* / slices.Sort* call referencing v
// appears after the range statement in the enclosing function body.
func sortedAfter(pass *Pass, fnBody *ast.BlockStmt, rs *ast.RangeStmt, v *types.Var) bool {
	found := false
	ast.Inspect(fnBody, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rs.End() {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		id, ok := sel.X.(*ast.Ident)
		if !ok {
			return true
		}
		pn, ok := pass.Info.Uses[id].(*types.PkgName)
		if !ok {
			return true
		}
		path := pn.Imported().Path()
		if path != "sort" && path != "slices" {
			return true
		}
		for _, arg := range call.Args {
			if referencesVar(pass, arg, v) {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// referencesVar reports whether expr mentions v anywhere.
func referencesVar(pass *Pass, expr ast.Expr, v *types.Var) bool {
	hit := false
	ast.Inspect(expr, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && pass.Info.Uses[id] == v {
			hit = true
			return false
		}
		return !hit
	})
	return hit
}
