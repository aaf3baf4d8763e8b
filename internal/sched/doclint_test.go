package sched

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestDocComments is the docs lint the CI workflow runs by name: every
// exported identifier in internal/sched, internal/registry, internal/sim and
// internal/adversary — package clauses, top-level types, funcs, consts,
// vars, struct fields, and interface methods — must carry a doc comment, so
// `go doc` reads as a guided tour of the scenario inventory and of the
// planner contract it rests on.
func TestDocComments(t *testing.T) {
	for _, dir := range []string{".", "../registry", "../sim", "../adversary"} {
		fset := token.NewFileSet()
		pkgs, err := parser.ParseDir(fset, dir, nil, parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		for _, pkg := range pkgs {
			if strings.HasSuffix(pkg.Name, "_test") {
				continue
			}
			sawPackageDoc := false
			for name, file := range pkg.Files {
				if strings.HasSuffix(name, "_test.go") {
					continue
				}
				if file.Doc != nil {
					sawPackageDoc = true
				}
				lintFile(t, fset, file)
			}
			if !sawPackageDoc {
				t.Errorf("package %s (%s) has no package doc comment", pkg.Name, dir)
			}
		}
	}
}

func lintFile(t *testing.T, fset *token.FileSet, file *ast.File) {
	t.Helper()
	report := func(pos token.Pos, what, name string) {
		t.Errorf("%s: exported %s %s has no doc comment", fset.Position(pos), what, name)
	}
	for _, decl := range file.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Name.IsExported() && d.Doc == nil {
				report(d.Pos(), "function", d.Name.Name)
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					if !s.Name.IsExported() {
						continue
					}
					if d.Doc == nil && s.Doc == nil {
						report(s.Pos(), "type", s.Name.Name)
					}
					lintFields(t, fset, s)
				case *ast.ValueSpec:
					for _, n := range s.Names {
						if n.IsExported() && d.Doc == nil && s.Doc == nil {
							report(n.Pos(), "value", n.Name)
						}
					}
				}
			}
		}
	}
}

// lintFields checks exported struct fields and interface methods of an
// exported type.
func lintFields(t *testing.T, fset *token.FileSet, spec *ast.TypeSpec) {
	t.Helper()
	var fields *ast.FieldList
	switch typ := spec.Type.(type) {
	case *ast.StructType:
		fields = typ.Fields
	case *ast.InterfaceType:
		fields = typ.Methods
	default:
		return
	}
	for _, f := range fields.List {
		if f.Doc != nil || f.Comment != nil {
			continue
		}
		for _, n := range f.Names {
			if n.IsExported() {
				t.Errorf("%s: exported field/method %s.%s has no doc comment",
					fset.Position(n.Pos()), spec.Name.Name, n.Name)
			}
		}
	}
}

// docFiles are the documents TestDocReferences checks, relative to the repo
// root. benchmark/README.md is left out: the benchmark module is frozen
// apart from benchmark-only changes.
var docFiles = []string{"DESIGN.md", "README.md", "EXPERIMENTS.md",
	".claude/skills/verify/SKILL.md", ".github/workflows/ci.yml"}

var (
	// citedTest matches a cited test, fuzz target, benchmark or example.
	citedTest = regexp.MustCompile(`\b(?:Test|Fuzz|Benchmark|Example)[A-Z0-9_]\w*`)
	// definedTest matches the definition of one in a _test.go file.
	definedTest = regexp.MustCompile(`(?m)^func ((?:Test|Fuzz|Benchmark|Example)\w*)\(`)
	// citedPath matches a cited repo path: one under a top-level directory,
	// or a top-level document, not itself part of a longer path.
	citedPath = regexp.MustCompile(`(?:^|[^\w/.-])((?:cmd|internal|examples|benchmark|\.github|\.claude)/[\w./-]*[\w/]|[A-Z][A-Z_]+\.(?:md|json))`)
)

// TestDocReferences is the reference lint the CI workflow runs beside
// TestDocComments: every test, fuzz target, benchmark or example the docs
// cite must be defined somewhere in the repo (a cited name may be a prefix,
// as in "TestSubsetBits*"), and every repo path they cite must exist.
func TestDocReferences(t *testing.T) {
	root := filepath.Join("..", "..")
	var defined []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && d.Name() == ".git" {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range definedTest.FindAllSubmatch(src, -1) {
			defined = append(defined, string(m[1]))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, doc := range docFiles {
		src, err := os.ReadFile(filepath.Join(root, doc))
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(src), "\n") {
			for _, name := range citedTest.FindAllString(line, -1) {
				if !slices.ContainsFunc(defined, func(d string) bool { return strings.HasPrefix(d, name) }) {
					t.Errorf("%s:%d: cites %s, which no _test.go file defines", doc, i+1, name)
				}
			}
			for _, m := range citedPath.FindAllStringSubmatch(line, -1) {
				if _, err := os.Stat(filepath.Join(root, m[1])); err != nil {
					t.Errorf("%s:%d: cites %s, which does not exist", doc, i+1, m[1])
				}
			}
		}
	}
}
