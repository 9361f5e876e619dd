package repro_test

// The exported-name gate: every exported package-level name outside a main
// package must be reached by a program — a command, the benchmark, or
// another product file. A name only tests reach is test scaffolding in
// product code: it belongs in a _test.go file of the package that uses it,
// or nowhere.
//
// Names are resolved by go/types, not spelled: every non-test .go file that
// go/build's MatchFile selects for this platform is parsed, and the module
// and the nested benchmark/ module are type-checked together (the standard
// library from its export data). An exported func, method, type, const or
// var counts as used only when an identifier in a non-test file resolves
// to it outside its own declaration; the receiver of a method does not use
// the method's type. A method also counts as used when its type, or a
// pointer to it, implements an interface that declares a method of that
// name which the library calls (any standard-library interface, error
// included) or which a non-test file of this tree calls. A live name the
// gate reports is called from outside this tree (the facade) and belongs
// on the allowlist with its reason.
//
// The same type-check drives the field rule. Every untagged, named struct
// field of a non-main package, blank padding aside, must be read by a
// non-test file. A write is not a read: the selector on an assignment's left
// side or of an ++ / -- statement, and a composite literal's key; every
// other use is. A field only written is bookkeeping no program looks at — a
// test that wants the count keeps it itself. And every func-typed field must
// be set by a non-test file: one that only tests set is a test seam, which
// stays only on seamAllowlist, with the name of the test that sets it. So
// does every package-level variable of a non-main package that a test file
// of its package assigns and no non-test file assigns after declaring it — a
// switch such as the vector bodies' (dsd.vectorFlux), set once at start-up,
// that only tests flip. Test files are parsed, not type-checked: an
// assigned identifier the file does not declare itself is the package's.

import (
	"bufio"
	"bytes"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"path"
	"slices"
	"strings"
	"sync"
	"testing"
	"testing/fstest"
)

// exportAllowlist names the declarations that may lack a non-test user and
// the fields that may lack a non-test reader, keyed as the gate reports them
// (package.Name, package.Recv.Name or package.Type.Field).
var exportAllowlist = map[string]string{
	// The massivefv facade is the module's public API: its callers are
	// other modules, not this tree.
	"massivefv.ExperimentConfig":   "public facade",
	"massivefv.SolveUnstructured":  "public facade, shown by ExampleSolveUnstructured",
	"massivefv.BuildMesh":          "public facade, shown by ExampleRunDataflow",
	"massivefv.RunDataflow":        "public facade, shown by ExampleRunDataflow",
	"massivefv.ProjectCS2":         "public facade, shown by ExampleRunDataflow and ExampleRunGPU",
	"massivefv.RunGPU":             "public facade, shown by ExampleRunGPU",
	"massivefv.ProjectA100":        "public facade, shown by ExampleRunGPU",
	"massivefv.NewWaveMedium":      "public facade, shown by ExampleSimulateWave",
	"massivefv.SimulateWave":       "public facade, shown by ExampleSimulateWave",
	"massivefv.WaveSource":         "public facade, shown by ExampleSimulateWave",
	"massivefv.CUDA":               "public facade",
	"massivefv.RAJA":               "public facade",
	"massivefv.DensityExponential": "public facade",
	"massivefv.PrecondChebyshev":   "public facade",
	"massivefv.RunFig8":            "public facade",
	"massivefv.RunTable1":          "public facade",
	"massivefv.RunTable2":          "public facade",
	"massivefv.RunTable3":          "public facade",
	"massivefv.RunTable4":          "public facade",
	"massivefv.RunTransient":       "public facade",
	"massivefv.Well":               "public facade",

	// errors.Is and errors.As call Unwrap through an interface the standard
	// library declares inside their bodies, where the gate cannot see it;
	// serve dispatches on the wrapped solver sentinels.
	"umesh.StepError.Unwrap": "called by errors.Is and errors.As",

	// The cell-based oracle both umesh's and massivefv's tests compare
	// against; a _test.go file cannot be shared across packages.
	"umesh.RunCellBasedApps": "oracle shared by the umesh and massivefv tests",

	// Fields read where the gate cannot see it.
	"serve.memoKey.payload": "half of a map key: the memo's map lookups compare it",
	"wave.Result.U":         "the wavefield the public facade's SimulateWave returns, drawn by ExampleSimulateWave",
}

// seamAllowlist names the func-typed fields no non-test file sets, keyed
// package.Type.Field, and the package-level variables only tests assign,
// keyed package.name. Each is a test seam, and its reason names a test,
// fuzz target or benchmark that sets it: "test seam: TestName".
var seamAllowlist = map[string]string{
	"loadgen.Driver.now":      "test seam: TestDriverRun",
	"loadgen.Driver.sleep":    "test seam: TestDriverRun",
	"serve.Options.solveHook": "test seam: TestChaos",
	"dsd.vectorFlux":          "test seam: FuzzFluxCell",
	"mesh.vectorSin":          "test seam: BenchmarkPerturbColumn",
	"umesh.vectorRows":        "test seam: TestGoSweepHoldsTheGoldens",
	"core.vectorLoad":         "test seam: TestVectorLoadMatchesGo",
}

// stdImporter reads the standard library's export data; one is shared by
// every tree the gate checks.
var stdImporter = sync.OnceValue(importer.Default)

// skipDir reports whether the walk should not descend into dir.
func skipDir(dir string) bool {
	base := path.Base(dir)
	return dir != "." && (strings.HasPrefix(base, ".") || base == "testdata")
}

// sourceTree is the type-checked non-test code of every module under a root.
type sourceTree struct {
	fset  *token.FileSet
	dirs  map[string]string         // import path → directory
	files map[string][]*ast.File    // directory → its parsed non-test files
	tests map[string][]*ast.File    // directory → its test files, parsed only
	pkgs  map[string]*types.Package // import path → checked package
	std   map[string]*types.Package // standard-library packages imported
	info  *types.Info
}

// loadTree parses and type-checks every package of every module in fsys.
func loadTree(fsys fs.FS) (*sourceTree, error) {
	t := &sourceTree{
		fset:  token.NewFileSet(),
		dirs:  map[string]string{},
		files: map[string][]*ast.File{},
		tests: map[string][]*ast.File{},
		pkgs:  map[string]*types.Package{},
		std:   map[string]*types.Package{},
		info:  &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}},
	}
	ctxt := build.Default
	ctxt.OpenFile = func(p string) (io.ReadCloser, error) { return fsys.Open(p) }
	ctxt.JoinPath = path.Join
	modules := map[string]string{} // directory → module path
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
		dir, name := path.Dir(p), path.Base(p)
		if name == "go.mod" {
			mod, err := modulePath(fsys, p)
			modules[dir] = mod
			return err
		}
		if !strings.HasSuffix(name, ".go") {
			return nil
		}
		if ok, err := ctxt.MatchFile(dir, name); err != nil || !ok {
			return err
		}
		src, err := fs.ReadFile(fsys, p)
		if err != nil {
			return err
		}
		if strings.HasSuffix(name, "_test.go") {
			// Object resolution marks what the test file declares itself.
			f, err := parser.ParseFile(t.fset, p, src, 0)
			t.tests[dir] = append(t.tests[dir], f)
			return err
		}
		f, err := parser.ParseFile(t.fset, p, src, parser.SkipObjectResolution)
		t.files[dir] = append(t.files[dir], f)
		return err
	})
	if err != nil {
		return nil, err
	}
	for dir := range t.files {
		ip, err := importPath(modules, dir)
		if err != nil {
			return nil, err
		}
		t.dirs[ip] = dir
	}
	for ip := range t.dirs {
		if _, err := t.Import(ip); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// modulePath reads the module line of the go.mod file at p.
func modulePath(fsys fs.FS, p string) (string, error) {
	src, err := fs.ReadFile(fsys, p)
	if err != nil {
		return "", err
	}
	sc := bufio.NewScanner(bytes.NewReader(src))
	for sc.Scan() {
		if mod, ok := strings.CutPrefix(strings.TrimSpace(sc.Text()), "module "); ok {
			return strings.Trim(strings.TrimSpace(mod), `"`), nil
		}
	}
	return "", fmt.Errorf("%s: no module line", p)
}

// importPath returns the import path of dir: the path of the nearest
// enclosing module joined with dir's place in it.
func importPath(modules map[string]string, dir string) (string, error) {
	for d, rel := dir, ""; ; d = path.Dir(d) {
		if mod, ok := modules[d]; ok {
			return path.Join(mod, rel), nil
		}
		if d == "." {
			return "", fmt.Errorf("%s: no go.mod above it", dir)
		}
		rel = path.Join(path.Base(d), rel)
	}
}

// Import type-checks the tree's package at ip once, or reads a
// standard-library package's export data.
func (t *sourceTree) Import(ip string) (*types.Package, error) {
	dir, ok := t.dirs[ip]
	if !ok {
		p, err := stdImporter().Import(ip)
		if err == nil {
			t.std[ip] = p
		}
		return p, err
	}
	if p, ok := t.pkgs[ip]; ok {
		return p, nil
	}
	p, err := (&types.Config{Importer: t}).Check(ip, t.fset, t.files[dir], t.info)
	if err != nil {
		return nil, err
	}
	t.pkgs[ip] = p
	return p, nil
}

// exportKey names obj as the gate reports it: package.Name, or
// package.Recv.Name for a method.
func exportKey(obj types.Object) string {
	key := obj.Pkg().Name() + "."
	if f, ok := obj.(*types.Func); ok {
		if r := f.Signature().Recv(); r != nil {
			key += receiverNamed(r.Type()).Obj().Name() + "."
		}
	}
	return key + obj.Name()
}

// receiverNamed returns the named type of a method receiver, T or *T.
func receiverNamed(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := types.Unalias(t).(*types.Named)
	return n
}

// origin maps an instantiated method or field to its generic declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// span is the source extent of one declaration.
type span struct{ pos, end token.Pos }

// declarations returns the extent of every exported package-level
// declaration outside a main package, and the identifiers of every method
// receiver.
func (t *sourceTree) declarations() (map[types.Object]span, map[*ast.Ident]bool) {
	decls := map[types.Object]span{}
	inReceiver := map[*ast.Ident]bool{}
	add := func(id *ast.Ident, n ast.Node) {
		if id.IsExported() {
			decls[t.info.Defs[id]] = span{n.Pos(), n.End()}
		}
	}
	for _, files := range t.files {
		for _, f := range files {
			if f.Name.Name == "main" {
				continue
			}
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					add(d.Name, d)
					if d.Recv != nil {
						ast.Inspect(d.Recv, func(n ast.Node) bool {
							if id, ok := n.(*ast.Ident); ok {
								inReceiver[id] = true
							}
							return true
						})
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch s := spec.(type) {
						case *ast.TypeSpec:
							add(s.Name, s)
						case *ast.ValueSpec:
							for _, id := range s.Names {
								add(id, s)
							}
						}
					}
				}
			}
		}
	}
	return decls, inReceiver
}

// calledInterfaces maps a method name to the interfaces that declare a
// method of that name which is called: by a used interface method of this
// tree, or by the library — error and every named interface of the
// standard-library packages the tree imports, directly or not.
func (t *sourceTree) calledInterfaces(used map[types.Object]bool) map[string][]*types.Interface {
	called := map[string][]*types.Interface{}
	add := func(m *types.Func) {
		if iface, ok := m.Signature().Recv().Type().Underlying().(*types.Interface); ok && iface.IsMethodSet() {
			called[m.Name()] = append(called[m.Name()], iface)
		}
	}
	for obj := range used {
		if m, ok := obj.(*types.Func); ok && m.Signature().Recv() != nil {
			add(m)
		}
	}
	add(types.Universe.Lookup("error").Type().Underlying().(*types.Interface).Method(0))
	seen := map[*types.Package]bool{}
	var library func(p *types.Package)
	library = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		scope := p.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			if n, ok := tn.Type().(*types.Named); ok && n.TypeParams() == nil {
				if iface, ok := n.Underlying().(*types.Interface); ok {
					for i := range iface.NumMethods() {
						add(iface.Method(i))
					}
				}
			}
		}
		for _, imp := range p.Imports() {
			library(imp)
		}
	}
	for _, p := range t.std {
		library(p)
	}
	return called
}

// fields returns the key of every untagged, named struct field declared in
// a type of a non-main package, nested anonymous structs included, except
// blank padding.
func (t *sourceTree) fields() map[types.Object]string {
	keys := map[types.Object]string{}
	var walk func(prefix string, st *ast.StructType)
	walk = func(prefix string, st *ast.StructType) {
		for _, f := range st.Fields.List {
			for _, id := range f.Names {
				if f.Tag == nil && id.Name != "_" {
					keys[t.info.Defs[id]] = prefix + id.Name
				}
				if inner, ok := f.Type.(*ast.StructType); ok {
					walk(prefix+id.Name+".", inner)
				}
			}
		}
	}
	for _, files := range t.files {
		for _, f := range files {
			if f.Name.Name == "main" {
				continue
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if s, ok := n.(*ast.TypeSpec); ok {
					if st, ok := s.Type.(*ast.StructType); ok {
						walk(f.Name.Name+"."+s.Name.Name+".", st)
					}
				}
				return true
			})
		}
	}
	return keys
}

// writes returns the identifiers that name a field being written: the
// selector on an assignment's left side or of an ++ / -- statement, and a
// composite literal's key.
func (t *sourceTree) writes() map[*ast.Ident]bool {
	out := map[*ast.Ident]bool{}
	lhs := func(e ast.Expr) {
		if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
			out[sel.Sel] = true
		}
	}
	for _, files := range t.files {
		for _, f := range files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch s := n.(type) {
				case *ast.AssignStmt:
					for _, e := range s.Lhs {
						lhs(e)
					}
				case *ast.IncDecStmt:
					lhs(s.X)
				case *ast.KeyValueExpr:
					if id, ok := s.Key.(*ast.Ident); ok {
						if v, ok := t.info.Uses[id].(*types.Var); ok && v.IsField() {
							out[id] = true
						}
					}
				}
				return true
			})
		}
	}
	return out
}

// assignedIdents returns the bare identifiers n assigns: the left side of
// an assignment that declares nothing, or an ++ / -- operand.
func assignedIdents(n ast.Node) []*ast.Ident {
	var lhs []ast.Expr
	switch s := n.(type) {
	case *ast.AssignStmt:
		if s.Tok != token.DEFINE {
			lhs = s.Lhs
		}
	case *ast.IncDecStmt:
		lhs = []ast.Expr{s.X}
	}
	var out []*ast.Ident
	for _, e := range lhs {
		if id, ok := ast.Unparen(e).(*ast.Ident); ok {
			out = append(out, id)
		}
	}
	return out
}

// testOnlyVars returns the keys of the package-level variables of non-main
// packages that a test file of their package assigns and no non-test file
// assigns.
func (t *sourceTree) testOnlyVars() []string {
	assigned := map[types.Object]bool{}
	for _, files := range t.files {
		for _, f := range files {
			ast.Inspect(f, func(n ast.Node) bool {
				for _, id := range assignedIdents(n) {
					assigned[t.info.Uses[id]] = true
				}
				return true
			})
		}
	}
	var out []string
	for ip, dir := range t.dirs {
		pkg := t.pkgs[ip]
		if pkg.Name() == "main" {
			continue
		}
		seen := map[types.Object]bool{}
		for _, f := range t.tests[dir] {
			if f.Name.Name != pkg.Name() {
				continue // an external test package reaches no unexported variable
			}
			ast.Inspect(f, func(n ast.Node) bool {
				for _, id := range assignedIdents(n) {
					if v, ok := pkg.Scope().Lookup(id.Name).(*types.Var); ok && id.Obj == nil && !assigned[v] && !seen[v] {
						seen[v] = true
						out = append(out, exportKey(v))
					}
				}
				return true
			})
		}
	}
	return out
}

// deadNames loads the tree in fsys and returns, sorted, the keys of what
// no non-test file needs: every exported declaration it does not use and
// every field it does not read (unused), and every func-typed field it does
// not set and every package-level variable only tests assign (unset) —
// seams only tests fill.
func deadNames(fsys fs.FS) (unused, unset []string, err error) {
	t, err := loadTree(fsys)
	if err != nil {
		return nil, nil, err
	}
	unused = t.unreferencedExports()
	fields, writes := t.fields(), t.writes()
	read, set := map[types.Object]bool{}, map[types.Object]bool{}
	for id, obj := range t.info.Uses {
		if writes[id] {
			set[origin(obj)] = true
		} else {
			read[origin(obj)] = true
		}
	}
	for obj, key := range fields {
		if !read[obj] {
			unused = append(unused, key)
		}
		if _, ok := obj.Type().Underlying().(*types.Signature); ok && !set[obj] {
			unset = append(unset, key)
		}
	}
	unset = append(unset, t.testOnlyVars()...)
	slices.Sort(unused)
	slices.Sort(unset)
	return unused, unset, nil
}

// unreferencedExports returns the keys of the exported declarations that
// no non-test file uses.
func (t *sourceTree) unreferencedExports() []string {
	decls, inReceiver := t.declarations()
	used := map[types.Object]bool{}
	for id, obj := range t.info.Uses {
		obj = origin(obj)
		if d, ok := decls[obj]; inReceiver[id] || ok && d.pos <= id.Pos() && id.Pos() < d.end {
			continue
		}
		used[obj] = true
	}
	called := t.calledInterfaces(used)
	implements := func(m *types.Func) bool {
		recv := receiverNamed(m.Signature().Recv().Type())
		if recv.TypeParams() != nil {
			return false
		}
		for _, iface := range called[m.Name()] {
			if types.Implements(recv, iface) || types.Implements(types.NewPointer(recv), iface) {
				return true
			}
		}
		return false
	}
	var out []string
	for obj := range decls {
		if m, ok := obj.(*types.Func); used[obj] || ok && m.Signature().Recv() != nil && implements(m) {
			continue
		}
		out = append(out, exportKey(obj))
	}
	return out
}

func TestEveryExportHasANonTestCaller(t *testing.T) {
	if _, err := os.Stat("go.mod"); err != nil {
		t.Fatalf("run from the module root: %v", err)
	}
	fsys := os.DirFS(".")
	unused, unset, err := deadNames(fsys)
	if err != nil {
		t.Fatal(err)
	}
	gate := func(keys []string, allow map[string]string, fix string) {
		flagged := map[string]bool{}
		for _, key := range keys {
			flagged[key] = true
			if _, ok := allow[key]; !ok {
				t.Errorf("%s %s", key, fix)
			}
		}
		for key, reason := range allow {
			if reason == "" {
				t.Errorf("allowlist entry %s gives no reason", key)
			}
			if !flagged[key] {
				t.Errorf("allowlist entry %s is stale: the name no longer exists or a non-test file now needs it", key)
			}
		}
	}
	gate(unused, exportAllowlist, "has no reader outside test files: delete it, move it into the tests that use it, or give it a reader")
	gate(unset, seamAllowlist, "is a func field no non-test file sets or a variable only tests assign: a test seam, which needs a seamAllowlist reason naming its test")
	tests := testNames(t, fsys)
	for key, reason := range seamAllowlist {
		if name, ok := strings.CutPrefix(reason, "test seam: "); !ok || !tests[name] {
			t.Errorf("seamAllowlist entry %s: reason %q does not read \"test seam: <an existing Test, Fuzz or Benchmark function>\"", key, reason)
		}
	}
}

// testNames returns the name of every Test, Fuzz and Benchmark function in
// the _test.go files of fsys.
func testNames(t *testing.T, fsys fs.FS) map[string]bool {
	names := map[string]bool{}
	err := fs.WalkDir(fsys, ".", func(p string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && skipDir(p):
			return fs.SkipDir
		case !strings.HasSuffix(p, "_test.go"):
			return nil
		}
		src, err := fs.ReadFile(fsys, p)
		if err != nil {
			return err
		}
		// Parsed, so a fixture's source inside a string declares nothing.
		f, err := parser.ParseFile(token.NewFileSet(), p, src, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil {
				for _, kind := range []string{"Test", "Fuzz", "Benchmark"} {
					if strings.HasPrefix(fn.Name.Name, kind) {
						names[fn.Name.Name] = true
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return names
}

func TestUnreferencedExportsReportsOnlyTheDeadName(t *testing.T) {
	for _, tc := range []struct {
		name      string
		fixture   fstest.MapFS
		want      []string
		wantUnset []string
	}{{
		name: "test-only caller",
		fixture: fstest.MapFS{
			"lib/lib.go": {Data: []byte(`package lib

// Used is called from the command; Dead only from a test. Ghost is named
// only by its method's receiver.
func Used() int { return 1 }

func Dead() int { return 2 }

type Ghost struct{}

func (Ghost) Boo() {}
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
		},
		want: []string{"lib.Dead", "lib.Ghost", "lib.Ghost.Boo"},
	}, {
		// A field of another package spelled like a method does not use it.
		name: "method named like a field",
		fixture: fstest.MapFS{
			"mesh/mesh.go": {Data: []byte(`package mesh

type Mesh struct{ n int }

func New() *Mesh { return &Mesh{n: 1} }

func (m *Mesh) Jitter() int { m.n++; return m.n }
`)},
			"load/load.go": {Data: []byte(`package load

type Shot struct{ Jitter float64 }
`)},
			"cmd/tool/main.go": {Data: []byte(`package main

import (
	"fixture/load"
	"fixture/mesh"
)

func main() { _ = mesh.New(); _ = load.Shot{}.Jitter }
`)},
		},
		want: []string{"mesh.Mesh.Jitter"},
	}, {
		// String and Error are called by the library; Area through a module
		// interface this tree calls. Perimeter implements an interface whose
		// method nothing calls.
		name: "interface methods",
		fixture: fstest.MapFS{
			"shape/shape.go": {Data: []byte(`package shape

type Shape interface{ Area() float64 }

type Outline interface{ Perimeter() float64 }

type Square struct{ Side float64 }

func (s Square) Area() float64 { return s.Side * s.Side }

func (s Square) Perimeter() float64 { return 4 * s.Side }

func (s Square) String() string { return "square" }

type Code int

func (c *Code) Error() string { return "code" }

func Total(shapes []Shape) (sum float64) {
	for _, s := range shapes {
		sum += s.Area()
	}
	return sum
}
`)},
			"cmd/tool/main.go": {Data: []byte(`package main

import (
	"fmt"

	"fixture/shape"
)

func main() {
	var c shape.Code
	fmt.Println(shape.Total([]shape.Shape{shape.Square{Side: 2}}), &c)
}
`)},
		},
		want: []string{"shape.Outline", "shape.Square.Perimeter"},
	}, {
		// Only the file built for this platform is checked, so the pair
		// declares Sweep once.
		name: "build-constrained pair",
		fixture: fstest.MapFS{
			"kern/sweep_amd64.go": {Data: []byte(`package kern

func Sweep() int { return 1 }
`)},
			"kern/sweep_other.go": {Data: []byte(`//go:build !amd64

package kern

func Sweep() int { return 1 }
`)},
			"cmd/tool/main.go": {Data: []byte(`package main

import "fixture/kern"

func main() { _ = kern.Sweep() }
`)},
		},
	}, {
		// Misses is only incremented and Total only set by a key; Label
		// is tagged (encoding/json reads it) and _ is padding.
		name: "field no program reads",
		fixture: fstest.MapFS{
			"stats/stats.go": {Data: []byte(`package stats

type Counter struct {
	Hits, Misses int
	Total        int
	Label        string ` + "`json:\"label\"`" + `
	_            [8]byte
}

func New() *Counter { return &Counter{Total: 1} }

func (c *Counter) Hit() { c.Hits++; c.Misses++ }

func (c *Counter) Rate() int { return c.Hits }
`)},
			"stats/stats_test.go": {Data: []byte(`package stats

import "testing"

func TestMisses(t *testing.T) { _ = New().Misses }
`)},
			"cmd/tool/main.go": {Data: []byte(`package main

import "fixture/stats"

func main() { c := stats.New(); c.Label = "x"; c.Hit(); _ = c.Rate() }
`)},
		},
		want: []string{"stats.Counter.Misses", "stats.Counter.Total"},
	}, {
		// step is set by the command; hook only by a test.
		name: "func field only a test sets",
		fixture: fstest.MapFS{
			"run/run.go": {Data: []byte(`package run

type Runner struct {
	step func() int
	hook func()
}

func New(step func() int) *Runner { return &Runner{step: step} }

func (r *Runner) Go() int {
	if r.hook != nil {
		r.hook()
	}
	return r.step()
}
`)},
			"run/run_test.go": {Data: []byte(`package run

import "testing"

func TestHook(t *testing.T) { r := New(nil); r.hook = func() {} }
`)},
			"cmd/tool/main.go": {Data: []byte(`package main

import "fixture/run"

func main() { _ = run.New(func() int { return 1 }).Go() }
`)},
		},
		wantUnset: []string{"run.Runner.hook"},
	}, {
		// fast is assigned only by a test, limit also by the package, and
		// the test's own fast and rate are its locals.
		name: "variable only a test assigns",
		fixture: fstest.MapFS{
			"kern/kern.go": {Data: []byte(`package kern

var fast = true

var limit = 4

var rate = 2

func Raise() int { limit++; return limit * rate }

func Fast() bool { return fast }
`)},
			"kern/kern_test.go": {Data: []byte(`package kern

import "testing"

func TestFast(t *testing.T) {
	defer func(v bool) { fast = v }(fast)
	fast, limit = false, 1
	rate := 3
	rate = 4
	func(fast bool) { fast = !fast }(true)
	_ = rate
}
`)},
			"kern/kern_ext_test.go": {Data: []byte(`package kern_test

import "testing"

var rate int

func TestRate(t *testing.T) { rate = 1 }
`)},
			"cmd/tool/main.go": {Data: []byte(`package main

import "fixture/kern"

func main() { _ = kern.Raise(); _ = kern.Fast() }
`)},
		},
		wantUnset: []string{"kern.fast"},
	}, {
		// The nested benchmark module is a caller.
		name: "benchmark caller",
		fixture: fstest.MapFS{
			"lib/lib.go": {Data: []byte(`package lib

func Measured() int { return 1 }
`)},
			"benchmark/go.mod": {Data: []byte("module fixture/benchmark\n\nrequire fixture v0.0.0\n\nreplace fixture => ../\n")},
			"benchmark/main.go": {Data: []byte(`package main

import "fixture/lib"

func main() { _ = lib.Measured() }
`)},
		},
	}} {
		t.Run(tc.name, func(t *testing.T) {
			tc.fixture["go.mod"] = &fstest.MapFile{Data: []byte("module fixture\n")}
			unused, unset, err := deadNames(tc.fixture)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(unused, tc.want) || !slices.Equal(unset, tc.wantUnset) {
				t.Fatalf("deadNames = %q, %q, want %q, %q", unused, unset, tc.want, tc.wantUnset)
			}
		})
	}
}
