package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"strings"
)

// This file implements the annotation grammar. Two directives exist,
// both file pragmas spelled as line comments with no space after "//":
//
//	//ocmxvet:live -- <reason>
//	    The file is the live (wall-clock) side of a package. The
//	    determinism analyzer exempts it wholesale where it otherwise
//	    covers the package (internal/lockspace, whose simulated
//	    multiplexer and live goroutine runtime share one package), and
//	    looptimer holds it to one runtime timer per loop (lockspace.go,
//	    and transport's session.go and tcp.go).
//
//	//ocmxvet:deterministic
//	    Opts a file into the determinism analyzer even though its
//	    package is not in the deterministic set. Fixture packages use
//	    it; real packages join by path in determinism.go.
//
// No directive silences a finding: any other ocmxvet directive, and a
// live pragma without its reason, is a finding of its own.

const directivePrefix = "ocmxvet:"

// malformedDirectives scans every comment of every file for ocmxvet
// directives and returns a finding for each one that is malformed.
func malformedDirectives(fset *token.FileSet, files []*ast.File) []Diagnostic {
	var out []Diagnostic
	report := func(c *ast.Comment, format string, args ...any) {
		out = append(out, Diagnostic{
			Pos:      fset.Position(c.Pos()),
			Analyzer: "directive",
			Message:  fmt.Sprintf(format, args...),
		})
	}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "//"+directivePrefix)
				if !ok {
					continue
				}
				// A trailing "// want ..." belongs to the fixture harness,
				// not the directive (one line holds at most one line
				// comment, so the two must share it in testdata).
				if i := strings.Index(text, "// want"); i >= 0 {
					text = text[:i]
				}
				verb, rest, _ := strings.Cut(strings.TrimSpace(text), " ")
				switch verb {
				case "live":
					// The pragmas are read by filePragmas; here they are
					// only checked.
					if _, reason, ok := strings.Cut(rest, "--"); !ok || strings.TrimSpace(reason) == "" {
						report(c, "ocmxvet:live needs a reason: //ocmxvet:live -- <reason>")
					}
				case "deterministic":
				default:
					report(c, "unknown ocmxvet directive %q", verb)
				}
			}
		}
	}
	return out
}

// fileOf returns the *ast.File containing pos.
func fileOf(fset *token.FileSet, files []*ast.File, pos token.Pos) *ast.File {
	for _, f := range files {
		if f.FileStart <= pos && pos <= f.FileEnd {
			return f
		}
	}
	return nil
}

// filePragmas returns the live/deterministic pragma state of the file
// containing pos (false, false when the file has none).
func filePragmas(fset *token.FileSet, files []*ast.File, pos token.Pos) (live, deterministic bool) {
	f := fileOf(fset, files, pos)
	if f == nil {
		return false, false
	}
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			text, ok := strings.CutPrefix(c.Text, "//"+directivePrefix)
			if !ok {
				continue
			}
			verb, _, _ := strings.Cut(strings.TrimSpace(text), " ")
			switch verb {
			case "live":
				live = true
			case "deterministic":
				deterministic = true
			}
		}
	}
	return live, deterministic
}
