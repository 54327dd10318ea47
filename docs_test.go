package opencubemx

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestGodocPresence is the doc-presence gate wired into CI: every
// exported identifier in the public package and under internal/ must
// carry a doc comment, and every package must have a package comment.
// The repo's packages are the paper reproduction's reference
// documentation, so an undocumented export is treated as a regression,
// the same way revive's exported rule would flag it.
func TestGodocPresence(t *testing.T) {
	dirs := map[string]bool{".": true}
	err := filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") {
			dirs[filepath.Dir(path)] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	fset := token.NewFileSet()
	for dir := range dirs {
		pkgs, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, parser.ParseComments)
		if err != nil {
			t.Fatalf("%s: %v", dir, err)
		}
		for _, pkg := range pkgs {
			hasPkgDoc := false
			for _, f := range pkg.Files {
				if f.Doc != nil {
					hasPkgDoc = true
				}
				checkFile(t, fset, f)
			}
			if !hasPkgDoc {
				t.Errorf("%s: package %s has no package comment", dir, pkg.Name)
			}
		}
	}
}

// checkFile reports every exported declaration in f that lacks a doc
// comment.
func checkFile(t *testing.T, fset *token.FileSet, f *ast.File) {
	t.Helper()
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if !d.Name.IsExported() || d.Doc != nil {
				continue
			}
			if d.Recv != nil && !exportedReceiver(d.Recv) {
				continue // method set of an unexported type: not in godoc
			}
			t.Errorf("%s: exported %s lacks a doc comment", fset.Position(d.Pos()), funcLabel(d))
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					if s.Name.IsExported() && s.Doc == nil && d.Doc == nil {
						t.Errorf("%s: exported type %s lacks a doc comment", fset.Position(s.Pos()), s.Name.Name)
					}
				case *ast.ValueSpec:
					for _, name := range s.Names {
						if name.IsExported() && s.Doc == nil && s.Comment == nil && d.Doc == nil {
							t.Errorf("%s: exported %s %s lacks a doc comment", fset.Position(s.Pos()), d.Tok, name.Name)
						}
					}
				}
			}
		}
	}
}

// exportedReceiver reports whether the method receiver names an exported
// type.
func exportedReceiver(recv *ast.FieldList) bool {
	if len(recv.List) == 0 {
		return false
	}
	typ := recv.List[0].Type
	if star, ok := typ.(*ast.StarExpr); ok {
		typ = star.X
	}
	if idx, ok := typ.(*ast.IndexExpr); ok { // generic receiver
		typ = idx.X
	}
	ident, ok := typ.(*ast.Ident)
	return ok && ident.IsExported()
}

// funcLabel renders "function Name" or "method (Recv).Name".
func funcLabel(d *ast.FuncDecl) string {
	if d.Recv == nil {
		return "function " + d.Name.Name
	}
	recv := ""
	if len(d.Recv.List) > 0 {
		typ := d.Recv.List[0].Type
		if star, ok := typ.(*ast.StarExpr); ok {
			if id, ok := star.X.(*ast.Ident); ok {
				recv = "*" + id.Name
			}
		} else if id, ok := typ.(*ast.Ident); ok {
			recv = id.Name
		}
	}
	return "method (" + recv + ")." + d.Name.Name
}

// TestExperimentsTablesAreTheGoldens compares the first fenced block
// under each listed EXPERIMENTS.md heading with that experiment's golden
// table, minus the golden's title line and the blank line that ends
// every printed table. The doc copies are written by hand; this keeps
// them equal. E7 and E10 show their -full table, whose leading rows are
// the default scale the golden pins (CI diffs the rest against the -full
// run). E5 shows an excerpt: the golden's header and rule lines, then
// some of its body rows in the golden's order. E9 and E13 show only their
// -full tables, which no golden holds; CI diffs each whole against the
// -full run.
func TestExperimentsTablesAreTheGoldens(t *testing.T) {
	doc, err := os.ReadFile("EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, exp := range []string{"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E10", "E11"} {
		t.Run(exp, func(t *testing.T) {
			golden, err := os.ReadFile("internal/harness/testdata/" + strings.ToLower(exp) + "_seed1993.golden")
			if err != nil {
				t.Fatal(err)
			}
			// The heading is matched up to the space that ends its name:
			// "## E1" alone is a prefix of "## E10", "## E11" and "## E13".
			heading := "## " + exp
			_, section, ok := strings.Cut(string(doc), "\n"+heading+" ")
			if !ok {
				t.Fatalf("EXPERIMENTS.md has no %q heading", heading)
			}
			_, block, ok := strings.Cut(section, "\n```\n")
			if !ok {
				t.Fatalf("EXPERIMENTS.md: no fenced block under %s", heading)
			}
			table, _, ok := strings.Cut(block, "```\n")
			if !ok {
				t.Fatalf("EXPERIMENTS.md: the fenced block under %s is not closed", heading)
			}
			_, want, _ := strings.Cut(strings.TrimSuffix(string(golden), "\n"), "\n")
			same := table == want
			switch exp {
			case "E5":
				same = isExcerpt(table, want)
			case "E7", "E10":
				same = strings.HasPrefix(table, want)
			}
			if !same {
				t.Errorf("EXPERIMENTS.md %s table differs from its golden:\ndoc:\n%s\ngolden:\n%s", heading, table, want)
			}
		})
	}
}

// isExcerpt reports whether table is golden's header and rule lines
// followed by one or more of golden's body rows, in golden's order.
func isExcerpt(table, golden string) bool {
	lines := func(s string) []string { return strings.Split(strings.TrimSuffix(s, "\n"), "\n") }
	doc, rows := lines(table), lines(golden)
	if len(doc) < 3 || len(rows) < 3 || doc[0] != rows[0] || doc[1] != rows[1] {
		return false
	}
	rows = rows[2:]
	for _, row := range doc[2:] {
		i := slices.Index(rows, row)
		if i < 0 {
			return false
		}
		rows = rows[i+1:]
	}
	return true
}
