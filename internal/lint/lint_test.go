package lint_test

import (
	"testing"

	"repro/internal/lint"
	"repro/internal/lint/linttest"
)

// fixtures is the loader shared by every fixture test: the source
// importer type-checks each dependency (including the standard library)
// once and caches it across fixtures.
var fixtures = lint.NewLoader()

func TestDeterminismFixture(t *testing.T) {
	linttest.Run(t, fixtures, "testdata/src/determinism/a", lint.DeterminismAnalyzer)
}

func TestDeterminismOutsideReplayDomain(t *testing.T) {
	linttest.Run(t, fixtures, "testdata/src/determinism/b", lint.DeterminismAnalyzer)
}

func TestDeterminismConflictingPragmas(t *testing.T) {
	linttest.Run(t, fixtures, "testdata/src/determinism/c", lint.DeterminismAnalyzer)
}

// TestDeterminismPragmaOptsOneFileIn: in a package outside the
// deterministic set the pragma is what puts a file under the rule — how
// internal/transport's machine.go is gated — and only that file.
func TestDeterminismPragmaOptsOneFileIn(t *testing.T) {
	linttest.Run(t, fixtures, "testdata/src/determinism/d", lint.DeterminismAnalyzer)
}

func TestMapiterFixture(t *testing.T) {
	linttest.Run(t, fixtures, "testdata/src/mapiter/a", lint.MapiterAnalyzer)
}

func TestArenaRetainFixture(t *testing.T) {
	linttest.Run(t, fixtures, "testdata/src/arenaretain/a", lint.ArenaRetainAnalyzer)
}

func TestNilsafeHookGuards(t *testing.T) {
	linttest.Run(t, fixtures, "testdata/src/nilsafe/a", lint.NilsafeAnalyzer)
}

func TestLooptimerLiveLoopFiles(t *testing.T) {
	linttest.Run(t, fixtures, "testdata/src/looptimer/lockspace", lint.LooptimerAnalyzer)
}

func TestLooptimerLiveFilesOfAnyPackage(t *testing.T) {
	linttest.Run(t, fixtures, "testdata/src/looptimer/transport", lint.LooptimerAnalyzer)
}

func TestHeldblockLiveStepFunctions(t *testing.T) {
	linttest.Run(t, fixtures, "testdata/src/heldblock/lockspace", lint.HeldblockAnalyzer)
}

func TestHeldblockOtherPackages(t *testing.T) {
	linttest.Run(t, fixtures, "testdata/src/heldblock/transport", lint.HeldblockAnalyzer)
}

// TestTreeIsClean runs the full suite over the real module: the tree
// must carry zero findings, so every invariant the analyzers encode is
// structurally true of the shipped code. This is the same gate `go run
// ./cmd/ocmxvet ./...` enforces in CI.
func TestTreeIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module from source")
	}
	pkgs, err := fixtures.Load("repro/...")
	if err != nil {
		t.Fatalf("load module: %v", err)
	}
	if len(pkgs) < 10 {
		t.Fatalf("loaded only %d packages; pattern repro/... did not expand", len(pkgs))
	}
	for _, pkg := range pkgs {
		diags, err := lint.Check(pkg)
		if err != nil {
			t.Fatalf("check %s: %v", pkg.Path, err)
		}
		for _, d := range diags {
			t.Errorf("%s", d)
		}
	}
}
