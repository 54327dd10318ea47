// Package lint is ocmxvet: a suite of source-level checkers for the
// invariants that live in code shape, where no test can observe them.
// The byte-identical experiment tables (any -parallel count), the
// valid-until-next-call arena discipline and the zero-cost-when-off
// observability hooks are enforced by runtime tests and CI cmp gates —
// which catch a violation only after it has shipped a nondeterministic
// run. The analyzers here flag the offending line instead:
//
//   - determinism: wall-clock calls, global math/rand sources and
//     runtime.NumGoroutine are forbidden inside the deterministic
//     packages (seeded rand.New(rand.NewSource(...)) stays legal).
//   - mapiter: ranging over a map while emitting output, collecting
//     results or sending effects needs a subsequent deterministic sort.
//   - arenaretain: pooled effect values (pointer-boxed arena entries)
//     must not be stored in struct fields, globals, or goroutine
//     closures, nor read after a later call into a core.Node — they are
//     valid only until the next call into any node of the emitting
//     state machine's host.
//   - nilsafe: core.Config.Observe / chaos.Config.Autopsy /
//     harness.Options.Autopsy uses must be nil-guarded, keeping the
//     zero-cost-when-off contract honest.
//   - looptimer: a live loop — the lockspace node loop, the transport
//     session loop — owns one time.Timer; time.AfterFunc and time.After
//     are forbidden in the //ocmxvet:live files of every package, so a
//     closed node cannot be kept alive by what it armed.
//   - heldblock: the live lockspace node is stepped under one mutex by
//     whoever has the input; a function documented "the caller holds
//     ls.mu" may not wait on a channel, select without a default, sleep
//     or lock the mutex again.
//
// An invariant a test can read is a test instead: the struct layout
// pins are TestLayoutPins in core and in sim, and the nil-safe metric
// handles are obs's TestNilReceivers.
//
// No annotation silences a finding.
//
// The framework deliberately mirrors the golang.org/x/tools/go/analysis
// API shapes (Analyzer, Pass, Diagnostic) on the standard library's
// go/ast + go/types only, so the checker builds in a hermetic
// environment with no module downloads; swapping the driver for the
// upstream multichecker later is a mechanical change.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Analyzer is one named invariant checker. Run inspects a single
// package through its Pass and reports findings; it must be stateless
// across packages.
type Analyzer struct {
	// Name labels the analyzer's findings.
	Name string
	// Doc is the one-line contract the analyzer enforces.
	Doc string
	// Run inspects one package.
	Run func(*Pass) error
}

// Pass carries one package's syntax and type information to an
// analyzer, mirroring analysis.Pass.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Files are the package's parsed non-test sources, with comments.
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
	diags *[]Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Diagnostic is one finding, positioned for editors (file:line:col).
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

// String renders the finding in the conventional vet format.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Analyzers returns the ocmxvet suite in reporting order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		DeterminismAnalyzer,
		MapiterAnalyzer,
		ArenaRetainAnalyzer,
		NilsafeAnalyzer,
		LooptimerAnalyzer,
		HeldblockAnalyzer,
	}
}

// Check runs every suite analyzer over pkg, adds a finding for each
// malformed ocmxvet directive, and returns the diagnostics sorted by
// position.
func Check(pkg *Package) ([]Diagnostic, error) {
	return CheckWith(pkg, Analyzers())
}

// CheckWith is Check restricted to the given analyzers (the per-analyzer
// fixture tests drive exactly one).
func CheckWith(pkg *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer: a,
			Fset:     pkg.Fset,
			Files:    pkg.Files,
			Pkg:      pkg.Types,
			Info:     pkg.Info,
			diags:    &diags,
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.Path, err)
		}
	}
	diags = append(diags, malformedDirectives(pkg.Fset, pkg.Files)...)
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i].Pos, diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return diags[i].Analyzer < diags[j].Analyzer
	})
	return diags, nil
}

// selectedPkg returns the import path of the package sel selects from
// (time in time.Now), or "" when sel.X is not a package name.
func selectedPkg(pass *Pass, sel *ast.SelectorExpr) string {
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return ""
	}
	pn, ok := pass.Info.Uses[id].(*types.PkgName)
	if !ok {
		return ""
	}
	return pn.Imported().Path()
}

// exprString renders an expression for diagnostics.
func exprString(e ast.Expr) string { return types.ExprString(e) }
