// Package linttest is the fixture harness for the ocmxvet analyzers: a
// small analysistest equivalent. A fixture is one package directory
// under internal/lint/testdata/src whose sources carry `// want "re"`
// expectations at the end of offending lines:
//
//	time.Now() // want "wall clock"
//
// Each regexp must match exactly one diagnostic reported on that line,
// and every diagnostic must be claimed by a want — so fixtures prove
// both that a seeded violation is caught and that legal code (which
// carries no want) is not flagged. Because one source line holds at
// most one line comment, a line testing a directive embeds the
// expectation in the same comment:
//
//	time.Now() //ocmxvet:allow determinism // want "unknown ocmxvet directive"
package linttest

import (
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/lint"
)

var (
	wantRe   = regexp.MustCompile(`// want (.*)$`)
	quotedRe = regexp.MustCompile(`"(?:[^"\\]|\\.)*"`)
)

// expectation is one want regexp awaiting its diagnostic.
type expectation struct {
	file string
	line int
	re   *regexp.Regexp
	hit  bool
}

// Run loads the fixture package at dir (relative to the caller's
// working directory, e.g. "testdata/src/determinism/a"), runs the given
// analyzers plus the directive check over it, and matches the
// diagnostics against the fixture's want comments.
func Run(t *testing.T, loader *lint.Loader, dir string, analyzers ...*lint.Analyzer) {
	t.Helper()
	rel, err := filepath.Rel("testdata/src", dir)
	if err != nil || strings.HasPrefix(rel, "..") {
		rel = filepath.Base(dir)
	}
	pkg, err := loader.LoadDir(dir, filepath.ToSlash(rel))
	if err != nil {
		t.Fatalf("load fixture %s: %v", dir, err)
	}
	diags, err := lint.CheckWith(pkg, analyzers)
	if err != nil {
		t.Fatalf("check fixture %s: %v", dir, err)
	}

	var wants []*expectation
	for _, f := range fixtureFiles(t, dir) {
		wants = append(wants, parseWants(t, f)...)
	}

	for _, d := range diags {
		if !claim(wants, d) {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.hit {
			t.Errorf("%s:%d: want %q matched no diagnostic", w.file, w.line, w.re)
		}
	}
}

func claim(wants []*expectation, d lint.Diagnostic) bool {
	for _, w := range wants {
		if !w.hit && w.file == d.Pos.Filename && w.line == d.Pos.Line && w.re.MatchString(d.Message) {
			w.hit = true
			return true
		}
	}
	return false
}

func fixtureFiles(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("read fixture dir %s: %v", dir, err)
	}
	var out []string
	for _, e := range ents {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			out = append(out, filepath.Join(dir, e.Name()))
		}
	}
	return out
}

func parseWants(t *testing.T, file string) []*expectation {
	t.Helper()
	data, err := os.ReadFile(file)
	if err != nil {
		t.Fatalf("read fixture %s: %v", file, err)
	}
	var out []*expectation
	for i, line := range strings.Split(string(data), "\n") {
		m := wantRe.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		quoted := quotedRe.FindAllString(m[1], -1)
		if len(quoted) == 0 {
			t.Fatalf("%s:%d: malformed want comment (no quoted regexps)", file, i+1)
		}
		for _, q := range quoted {
			pat, err := strconv.Unquote(q)
			if err != nil {
				t.Fatalf("%s:%d: bad want string %s: %v", file, i+1, q, err)
			}
			re, err := regexp.Compile(pat)
			if err != nil {
				t.Fatalf("%s:%d: bad want regexp %q: %v", file, i+1, pat, err)
			}
			out = append(out, &expectation{file: file, line: i + 1, re: re})
		}
	}
	return out
}
