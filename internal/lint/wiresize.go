package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// wirePins are the layout contracts: the 80-byte core.Message (one
// cache-line-pair struct each wire record encodes field by field, runtime-pinned
// by TestMessageStays80Bytes since PR 6), the 24-byte sim heap entry
// (four-word heap sifts, and the unit the arrivals lane stores —
// DESIGN.md §8) and the 360-byte core.Node (what a keyed instance costs
// in its host's slab once Config and the effect scratch moved to
// core.Host — DESIGN.md §9; a field added to Node is paid by every
// instantiated (position, instance) pair). Matching is by path suffix +
// type name so the fixture packages under testdata exercise the same
// code path as the real tree.
var wirePins = []struct {
	pathSuffix string // last import-path segment
	typeName   string
	bytes      int64
	exact      bool // false: upper bound
}{
	{"core", "Message", 80, true},
	{"core", "Node", 360, false},
	{"sim", "heapEntry", 24, false},
}

// WiresizeAnalyzer recomputes pinned struct layouts from go/types sizes
// and names the field that breaks the pin, turning the runtime
// unsafe.Sizeof checks into compile-time diagnostics.
var WiresizeAnalyzer = &Analyzer{
	Name: "wiresize",
	Doc:  "pin core.Message to exactly 80 bytes, core.Node to at most 360 and the sim heap entry to at most 24",
	Run:  runWiresize,
}

func runWiresize(pass *Pass) error {
	seg := pass.Pkg.Path()
	if i := strings.LastIndex(seg, "/"); i >= 0 {
		seg = seg[i+1:]
	}
	for _, pin := range wirePins {
		if seg != pin.pathSuffix {
			continue
		}
		obj := pass.Pkg.Scope().Lookup(pin.typeName)
		if obj == nil {
			continue
		}
		tn, ok := obj.(*types.TypeName)
		if !ok {
			continue
		}
		st, ok := tn.Type().Underlying().(*types.Struct)
		if !ok {
			continue
		}
		size := pass.Sizes.Sizeof(st)
		switch {
		case pin.exact && size != pin.bytes:
			grew := ""
			if f := overflowField(pass.Sizes, st, pin.bytes); f != "" && size > pin.bytes {
				grew = "; field " + f + " pushes past the pin"
			}
			pass.Reportf(structPos(pass, tn), "%s.%s is %d bytes, want exactly %d%s",
				pin.pathSuffix, pin.typeName, size, pin.bytes, grew)
		case !pin.exact && size > pin.bytes:
			grew := ""
			if f := overflowField(pass.Sizes, st, pin.bytes); f != "" {
				grew = "; field " + f + " pushes past the pin"
			}
			pass.Reportf(structPos(pass, tn), "%s.%s is %d bytes, want at most %d%s",
				pin.pathSuffix, pin.typeName, size, pin.bytes, grew)
		}
	}
	return nil
}

// overflowField names the first field whose storage crosses the limit,
// or the last field when only trailing padding does.
func overflowField(sizes types.Sizes, st *types.Struct, limit int64) string {
	n := st.NumFields()
	if n == 0 {
		return ""
	}
	fields := make([]*types.Var, n)
	for i := 0; i < n; i++ {
		fields[i] = st.Field(i)
	}
	offsets := sizes.Offsetsof(fields)
	for i, f := range fields {
		if offsets[i]+sizes.Sizeof(f.Type()) > limit {
			return f.Name()
		}
	}
	return fields[n-1].Name()
}

// structPos positions the diagnostic on the struct's type declaration
// in this package's syntax (falling back to the object position).
func structPos(pass *Pass, tn *types.TypeName) token.Pos {
	pos := tn.Pos()
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if ok && ts.Name.Name == tn.Name() && pass.Info.Defs[ts.Name] == tn {
				pos = ts.Pos()
				return false
			}
			return true
		})
	}
	return pos
}
