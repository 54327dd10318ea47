package lint

import (
	"go/ast"
	"go/types"
)

// deterministicPackages is the replay domain: every package whose
// execution must be a pure function of seeds and schedules, because the
// experiment tables it produces are CI-gated byte-identical at any
// -parallel count (DESIGN.md §13) and the paper-facing
// analyses (Lavault's averages, the E-series sweeps) assume replayable
// executions. internal/lockspace is listed even though it also hosts
// the live goroutine runtime: its wall-clock files carry the
// //ocmxvet:live file pragma instead of leaving the whole package
// unguarded.
var deterministicPackages = map[string]bool{
	"repro/internal/core":        true,
	"repro/internal/sim":         true,
	"repro/internal/harness":     true,
	"repro/internal/workload":    true,
	"repro/internal/metrics":     true,
	"repro/internal/lockspace":   true,
	"repro/internal/ocube":       true,
	"repro/internal/raymond":     true,
	"repro/internal/naimitrehel": true,
}

// forbiddenTime are the time package's wall-clock entry points. Types
// (time.Duration) and arithmetic stay legal — virtual time is dressed
// as a Duration throughout the engine — but reading or waiting on the
// machine clock inside the replay domain leaks the host into the run.
var forbiddenTime = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "AfterFunc": true, "Tick": true,
	"NewTimer": true, "NewTicker": true,
}

// allowedRand are the math/rand constructors that produce an explicit,
// seedable source. Everything else at package level draws from the
// global source, which is shared, lockable, and differently seeded per
// process — exactly what the seeded-replay fix of PR 1 exists to keep
// out.
var allowedRand = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	// math/rand/v2 constructors, should the tree migrate.
	"NewPCG": true, "NewChaCha8": true,
}

// DeterminismAnalyzer forbids wall-clock reads, global math/rand
// sources and runtime.NumGoroutine in the deterministic packages.
var DeterminismAnalyzer = &Analyzer{
	Name: "determinism",
	Doc:  "forbid wall-clock, global rand and goroutine-count reads in the replay domain",
	Run:  runDeterminism,
}

func runDeterminism(pass *Pass) error {
	inSet := deterministicPackages[pass.Pkg.Path()]
	for _, f := range pass.Files {
		live, det := filePragmas(pass.Fset, pass.Files, f.Pos())
		if live && det {
			pass.Reportf(f.Pos(), "file carries both //ocmxvet:live and //ocmxvet:deterministic")
			continue
		}
		if !(inSet && !live || det) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			pkg := selectedPkg(pass, sel)
			if pkg == "" {
				return true
			}
			// Only package-level functions leak nondeterminism; type
			// references (*rand.Rand parameters, time.Duration) are the
			// deterministic plumbing itself.
			if _, isFunc := pass.Info.Uses[sel.Sel].(*types.Func); !isFunc {
				return true
			}
			name := sel.Sel.Name
			switch pkg {
			case "time":
				if forbiddenTime[name] {
					pass.Reportf(sel.Pos(),
						"time.%s reads the wall clock inside the deterministic package %s; route it through the obs layer",
						name, pass.Pkg.Path())
				}
			case "math/rand", "math/rand/v2":
				if !allowedRand[name] && ast.IsExported(name) {
					pass.Reportf(sel.Pos(),
						"rand.%s draws from the process-global source inside the deterministic package %s; use an explicit rand.New(rand.NewSource(seed))",
						name, pass.Pkg.Path())
				}
			case "runtime":
				if name == "NumGoroutine" {
					pass.Reportf(sel.Pos(),
						"runtime.NumGoroutine observes scheduler state inside the deterministic package %s",
						pass.Pkg.Path())
				}
			}
			return true
		})
	}
	return nil
}
