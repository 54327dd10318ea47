package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"strings"
)

// This file implements the annotation grammar. Three directives exist,
// all spelled as line comments with no space after "//":
//
//	//ocmxvet:allow <analyzer>[,<analyzer>...] -- <reason>
//	    Suppresses the named analyzers' findings on the directive's own
//	    line and on the line directly below it (so the annotation works
//	    both trailing the offending statement and on its own line above
//	    it). The reason is mandatory: an allowance without one is itself
//	    a finding, as is one naming an unknown analyzer.
//
//	//ocmxvet:live -- <reason>
//	    File pragma: the file is the live (wall-clock) side of a package.
//	    The determinism analyzer exempts it wholesale where it otherwise
//	    covers the package (internal/lockspace, whose simulated
//	    multiplexer and live goroutine runtime share one package), and
//	    looptimer holds it to one runtime timer per loop (lockspace.go,
//	    and transport's session.go and tcp.go).
//
//	//ocmxvet:deterministic
//	    File pragma: opts a file into the determinism analyzer even
//	    though its package is not in the deterministic set. Fixture
//	    packages use it; real packages join by path in determinism.go.

const directivePrefix = "ocmxvet:"

// fileDirectives is one file's parsed annotation state.
type fileDirectives struct {
	// allowed maps line -> analyzer names suppressed on that line.
	allowed map[int]map[string]bool
}

// directives is the package-wide annotation state plus the findings the
// parse itself produced (malformed allowances must fail, not silently
// suppress nothing).
type directives struct {
	files     map[string]*fileDirectives
	malformed []Diagnostic
}

// parseDirectives scans every comment of every file for ocmxvet
// annotations.
func parseDirectives(fset *token.FileSet, files []*ast.File) *directives {
	d := &directives{files: map[string]*fileDirectives{}}
	for _, f := range files {
		pos := fset.Position(f.Pos())
		fd := &fileDirectives{allowed: map[int]map[string]bool{}}
		d.files[pos.Filename] = fd
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				d.parseComment(fset, fd, c)
			}
		}
	}
	return d
}

func (d *directives) parseComment(fset *token.FileSet, fd *fileDirectives, c *ast.Comment) {
	text, ok := strings.CutPrefix(c.Text, "//"+directivePrefix)
	if !ok {
		return
	}
	// A trailing "// want ..." belongs to the fixture harness, not the
	// directive (one line holds at most one line comment, so the two
	// must share it in testdata).
	if i := strings.Index(text, "// want"); i >= 0 {
		text = text[:i]
	}
	pos := fset.Position(c.Pos())
	verb, rest, _ := strings.Cut(strings.TrimSpace(text), " ")
	switch verb {
	case "allow":
		d.parseAllow(pos, fd, rest)
	case "live":
		// The file pragmas are read by filePragmas; here they are only
		// checked.
		if _, reason, ok := strings.Cut(rest, "--"); !ok || strings.TrimSpace(reason) == "" {
			d.report(pos, "ocmxvet:live needs a reason: //ocmxvet:live -- <reason>")
		}
	case "deterministic":
	default:
		d.report(pos, "unknown ocmxvet directive %q", verb)
	}
}

func (d *directives) parseAllow(pos token.Position, fd *fileDirectives, rest string) {
	names, reason, ok := strings.Cut(rest, "--")
	if !ok || strings.TrimSpace(reason) == "" {
		d.report(pos, "ocmxvet:allow needs a reason: //ocmxvet:allow <analyzer> -- <reason>")
		return
	}
	attempted := 0
	for _, name := range strings.Split(names, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		attempted++
		if !knownAnalyzer(name) {
			d.report(pos, "ocmxvet:allow names unknown analyzer %q", name)
			continue
		}
		for _, line := range []int{pos.Line, pos.Line + 1} {
			m := fd.allowed[line]
			if m == nil {
				m = map[string]bool{}
				fd.allowed[line] = m
			}
			m[name] = true
		}
	}
	if attempted == 0 {
		d.report(pos, "ocmxvet:allow names no analyzer")
	}
}

func (d *directives) report(pos token.Position, format string, args ...any) {
	d.malformed = append(d.malformed, Diagnostic{
		Pos:      pos,
		Analyzer: "directive",
		Message:  fmt.Sprintf(format, args...),
	})
}

// filter drops diagnostics covered by a well-formed allowance and
// appends the malformed-directive findings.
func (d *directives) filter(diags []Diagnostic) []Diagnostic {
	out := diags[:0]
	for _, dg := range diags {
		if fd := d.files[dg.Pos.Filename]; fd != nil && fd.allowed[dg.Pos.Line][dg.Analyzer] {
			continue
		}
		out = append(out, dg)
	}
	return append(out, d.malformed...)
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
