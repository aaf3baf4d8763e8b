package sched

import (
	"go/ast"
	"go/parser"
	"go/token"
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
