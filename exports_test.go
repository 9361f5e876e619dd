package repro_test

// The exported-name gate: every exported package-level name outside a main
// package must have a caller outside the test files. A name only tests call
// is test scaffolding in product code — it belongs in a _test.go file of the
// package that uses it, or nowhere.
//
// Declarations are read with go/parser from every non-test, non-main .go
// file outside benchmark/; callers are counted with go/scanner as identifier
// tokens across every non-test .go file of the tree, benchmark/ and cmd/
// included. A name is reported when it occurs exactly as many times as it
// is declared. Counting bare identifiers is lenient — an unrelated field or
// local of the same name counts as a caller — so the gate can miss a dead
// name. A live name it reports is called from outside this tree (the
// facade) or by the standard library (an interface method), and belongs on
// the allowlist.

import (
	"go/ast"
	"go/parser"
	"go/scanner"
	"go/token"
	"io/fs"
	"os"
	"path"
	"slices"
	"strings"
	"testing"
	"testing/fstest"
)

// exportAllowlist names the declarations that may lack a non-test caller,
// keyed as the gate reports them (package.Name or package.Recv.Name).
var exportAllowlist = map[string]string{
	// The massivefv facade is the module's public API: its callers are
	// other modules, not this tree.
	"massivefv.ExperimentConfig":  "public facade",
	"massivefv.SolveUnstructured": "public facade, shown by ExampleSolveUnstructured",
	"massivefv.BuildMesh":         "public facade, shown by ExampleRunDataflow",
	"massivefv.RunDataflow":       "public facade, shown by ExampleRunDataflow",
	"massivefv.ProjectCS2":        "public facade, shown by ExampleRunDataflow and ExampleRunGPU",
	"massivefv.RunGPU":            "public facade, shown by ExampleRunGPU",
	"massivefv.ProjectA100":       "public facade, shown by ExampleRunGPU",
	"massivefv.NewWaveMedium":     "public facade, shown by ExampleSimulateWave",
	"massivefv.SimulateWave":      "public facade, shown by ExampleSimulateWave",
	"massivefv.WaveSource":        "public facade, shown by ExampleSimulateWave",

	// faultinject is test support: only tests import it.
	"faultinject.Plan.Hook":      "test-support package",
	"faultinject.Plan.Scheduled": "test-support package",
	"faultinject.RandomPlan":     "test-support package",

	// The cell-based oracle both umesh's and massivefv's tests compare
	// against; a _test.go file cannot be shared across packages.
	"umesh.RunCellBasedApps": "oracle shared by the umesh and massivefv tests",
}

// declaredExport is one exported package-level declaration.
type declaredExport struct {
	key  string // package.Name or package.Recv.Name
	name string // the identifier itself
}

// skipDir reports whether the walk should not descend into dir.
func skipDir(dir string) bool {
	base := path.Base(dir)
	return dir != "." && (strings.HasPrefix(base, ".") || base == "testdata")
}

// unreferencedExports returns the keys of the exported declarations in fsys
// whose names occur nowhere in the non-test Go files but in their
// declarations, sorted.
func unreferencedExports(fsys fs.FS) ([]string, error) {
	var decls []declaredExport
	uses := map[string]int{}
	err := fs.WalkDir(fsys, ".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if skipDir(p) {
				return fs.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		src, err := fs.ReadFile(fsys, p)
		if err != nil {
			return err
		}
		countIdents(src, uses)
		if p == "benchmark" || strings.HasPrefix(p, "benchmark/") {
			return nil
		}
		fd, err := declaredExports(p, src)
		decls = append(decls, fd...)
		return err
	})
	if err != nil {
		return nil, err
	}
	declCount := map[string]int{}
	for _, d := range decls {
		declCount[d.name]++
	}
	var out []string
	for _, d := range decls {
		if uses[d.name] <= declCount[d.name] {
			out = append(out, d.key)
		}
	}
	slices.Sort(out)
	return out, nil
}

// countIdents adds each identifier token of src to uses.
func countIdents(src []byte, uses map[string]int) {
	fset := token.NewFileSet()
	var s scanner.Scanner
	s.Init(fset.AddFile("", -1, len(src)), src, nil, 0)
	for {
		_, tok, lit := s.Scan()
		if tok == token.EOF {
			return
		}
		if tok == token.IDENT {
			uses[lit]++
		}
	}
}

// declaredExports lists the exported package-level funcs, methods, types,
// consts and vars of the file at p, unless it belongs to a main package.
func declaredExports(p string, src []byte) ([]declaredExport, error) {
	f, err := parser.ParseFile(token.NewFileSet(), p, src, parser.SkipObjectResolution)
	if err != nil {
		return nil, err
	}
	pkg := f.Name.Name
	if pkg == "main" {
		return nil, nil
	}
	var out []declaredExport
	add := func(id *ast.Ident, recv string) {
		if id.IsExported() {
			out = append(out, declaredExport{key: pkg + "." + recv + id.Name, name: id.Name})
		}
	}
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			recv := ""
			if d.Recv != nil {
				recv = receiverName(d.Recv.List[0].Type) + "."
			}
			add(d.Name, recv)
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					add(s.Name, "")
				case *ast.ValueSpec:
					for _, id := range s.Names {
						add(id, "")
					}
				}
			}
		}
	}
	return out, nil
}

// receiverName returns the type name of a method receiver expression:
// T, *T, T[P] and *T[P] all give T.
func receiverName(e ast.Expr) string {
	for {
		switch t := e.(type) {
		case *ast.StarExpr:
			e = t.X
		case *ast.IndexExpr:
			e = t.X
		case *ast.IndexListExpr:
			e = t.X
		case *ast.Ident:
			return t.Name
		default:
			return "?"
		}
	}
}

// isInterfaceMethod reports whether key names a method that satisfies a
// standard-library interface, which the library calls, not this tree.
func isInterfaceMethod(key string) bool {
	parts := strings.Split(key, ".")
	if len(parts) != 3 {
		return false
	}
	switch parts[2] {
	case "Error", "String", "Unwrap", "Is", "Len", "Less", "Swap", "ServeHTTP",
		"MarshalJSON", "UnmarshalJSON", "MarshalText", "UnmarshalText", "Format", "GoString":
		return true
	}
	return false
}

func TestEveryExportHasANonTestCaller(t *testing.T) {
	if _, err := os.Stat("go.mod"); err != nil {
		t.Fatalf("run from the module root: %v", err)
	}
	unref, err := unreferencedExports(os.DirFS("."))
	if err != nil {
		t.Fatal(err)
	}
	flagged := map[string]bool{}
	for _, key := range unref {
		flagged[key] = true
		if _, ok := exportAllowlist[key]; ok || isInterfaceMethod(key) {
			continue
		}
		t.Errorf("%s has no caller outside test files: delete it, move it into the tests that use it, or give it a caller", key)
	}
	for key := range exportAllowlist {
		if !flagged[key] {
			t.Errorf("allowlist entry %s is stale: the name no longer exists or now has a non-test caller", key)
		}
	}
}

func TestUnreferencedExportsReportsOnlyTheDeadName(t *testing.T) {
	fixture := fstest.MapFS{
		"lib/lib.go": {Data: []byte(`package lib

// Used is called from the command; Dead only from a test.
func Used() int { return 1 }

func Dead() int { return 2 }
`)},
		"lib/lib_test.go": {Data: []byte(`package lib

import "testing"

func TestDead(t *testing.T) { _ = Dead() }
`)},
		"cmd/tool/main.go": {Data: []byte(`package main

import "fixture/lib"

// Main is a main package's own export and is not a declaration the gate reads.
func Main() {}

func main() { _ = lib.Used() }
`)},
	}
	got, err := unreferencedExports(fixture)
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"lib.Dead"}; !slices.Equal(got, want) {
		t.Fatalf("unreferencedExports = %q, want %q", got, want)
	}
}
