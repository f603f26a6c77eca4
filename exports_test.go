package choreo_test

import (
	"errors"
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
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// awaitingDirection6 lists the §3.3 code (bottleneck inference and the
// model detection built on it) that nothing calls yet: ROADMAP direction 6
// either wires it into the pipeline or deletes it. The list may only
// shrink: TestExportedFuncsHaveCallers fails when a listed name gains a
// caller or disappears.
var awaitingDirection6 = []string{
	"choreo/internal/core.(*Choreo).DetectModel",
	"choreo/internal/bottleneck.Infer",
	"choreo/internal/bottleneck.(*Inference).SameMachine",
	"choreo/internal/bottleneck.NewSharedBottleneckMatrix",
	"choreo/internal/bottleneck.(*SharedBottleneckMatrix).Shares",
}

// implicitInterfaces are the interfaces the standard library asserts with
// anonymous interface types (errors.Is, errors.As, errors.Unwrap), which
// no package scope names.
const implicitInterfaces = `package implicit
type unwrapper interface{ Unwrap() error }
type multiUnwrapper interface{ Unwrap() []error }
type iser interface{ Is(error) bool }
type aser interface{ As(any) bool }
`

// TestExportedFuncsHaveCallers type-checks every package of the module and
// of perfbench, and fails on an exported function or method declared in
// internal/ or cmd/ that nothing uses. A use is one from non-test code, or
// one from the test files of a different package (the only way Go shares a
// test helper); a package's own tests do not count. Methods named by an
// interface that their type or its pointer implements are exempt, and the
// root package's API is out of scope.
func TestExportedFuncsHaveCallers(t *testing.T) {
	m, err := loadModule(".", "choreo")
	if err != nil {
		t.Fatal(err)
	}
	if err := m.checkAll(); err != nil {
		t.Fatal(err)
	}
	ifaces, err := m.interfaces()
	if err != nil {
		t.Fatal(err)
	}

	declared := map[string]*types.Func{}
	var unused []string
	for _, path := range m.order {
		if !strings.HasPrefix(path, "choreo/internal/") && !strings.HasPrefix(path, "choreo/cmd/") {
			continue
		}
		for _, f := range exportedFuncs(m.primary[path]) {
			key := funcKey(f)
			declared[key] = f
			if !m.used(key, path) && !satisfiesInterface(f, ifaces) {
				unused = append(unused, key)
			}
		}
	}

	waiting := map[string]bool{}
	for _, key := range awaitingDirection6 {
		waiting[key] = true
		if f, ok := declared[key]; !ok {
			t.Errorf("%s is listed in awaitingDirection6 but no longer declared: remove it from the list", key)
		} else if m.used(key, f.Pkg().Path()) {
			t.Errorf("%s now has a caller: remove it from awaitingDirection6", key)
		}
	}
	sort.Strings(unused)
	for _, key := range unused {
		if !waiting[key] {
			t.Errorf("%s: exported %s has no caller outside its own package's tests; "+
				"delete it with its tests, unexport it, or move it into the _test.go file that uses it",
				m.fset.Position(declared[key].Pos()), key)
		}
	}
}

// module holds the packages of a module tree, nested modules such as
// perfbench included, type-checked from source against the standard
// library's export data.
type module struct {
	fset    *token.FileSet
	std     types.Importer
	pkgs    map[string]*build.Package // by import path
	order   []string                  // import paths, in walk order
	files   map[string]*ast.File      // by file name
	primary map[string]*types.Package // non-test files only
	infos   []*types.Info             // of every non-test check
	uses    map[string][]use          // by funcKey
}

// use is one reference to a function: the package it appears in (an
// external test package counts as the package it tests) and whether it
// appears in a _test.go file.
type use struct {
	pkg  string
	test bool
}

// loadModule lists the packages under root, the directory of module path.
// A nested module must be named after its directory, as perfbench is
// (choreo/perfbench). go/build chooses each package's files, so build
// constraints such as //go:build race hold as they do for `go test`.
func loadModule(root, path string) (*module, error) {
	m := &module{
		fset:    token.NewFileSet(),
		pkgs:    map[string]*build.Package{},
		files:   map[string]*ast.File{},
		primary: map[string]*types.Package{},
		uses:    map[string][]use{},
	}
	err := filepath.WalkDir(root, func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		name := d.Name()
		if dir != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
			return filepath.SkipDir
		}
		p, err := build.Default.ImportDir(dir, 0)
		var noGo *build.NoGoError
		if errors.As(err, &noGo) {
			return nil
		}
		if err != nil {
			return err
		}
		importPath := path
		if rel, _ := filepath.Rel(root, dir); rel != "." {
			importPath += "/" + filepath.ToSlash(rel)
		}
		p.ImportPath = importPath
		m.pkgs[importPath] = p
		m.order = append(m.order, importPath)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return m, m.stdExports()
}

// stdExports points m.std at the export data of every standard library
// package the module imports, listed by one `go list` run rather than one
// per package.
func (m *module) stdExports() error {
	std := map[string]bool{}
	for _, p := range m.pkgs {
		for _, list := range [][]string{p.Imports, p.TestImports, p.XTestImports} {
			for _, path := range list {
				if m.pkgs[path] == nil {
					std[path] = true
				}
			}
		}
	}
	args := []string{"list", "-export", "-deps", "-f", "{{.ImportPath}}={{.Export}}"}
	for path := range std {
		args = append(args, path)
	}
	out, err := exec.Command("go", args...).Output()
	var exit *exec.ExitError
	if errors.As(err, &exit) {
		return fmt.Errorf("go list: %w: %s", err, exit.Stderr)
	}
	if err != nil {
		return fmt.Errorf("go list: %w", err)
	}
	exports := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		path, file, _ := strings.Cut(line, "=")
		exports[path] = file
	}
	m.std = importer.ForCompiler(m.fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %s", path)
		}
		return os.Open(file)
	})
	return nil
}

// parse returns the syntax of the named files of p, parsing each file once
// however many checks use it.
func (m *module) parse(p *build.Package, names []string) ([]*ast.File, error) {
	var files []*ast.File
	for _, name := range names {
		file := filepath.Join(p.Dir, name)
		f, ok := m.files[file]
		if !ok {
			var err error
			if f, err = parser.ParseFile(m.fset, file, nil, parser.SkipObjectResolution); err != nil {
				return nil, err
			}
			m.files[file] = f
		}
		files = append(files, f)
	}
	return files, nil
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// check type-checks one package's files, filling info if it is not nil.
func (m *module) check(path string, files []*ast.File, imp types.Importer, info *types.Info) (*types.Package, error) {
	var errs []error
	conf := types.Config{Importer: imp, Error: func(err error) { errs = append(errs, err) }}
	pkg, _ := conf.Check(path, m.fset, files, info)
	if len(errs) > 0 {
		return nil, fmt.Errorf("type-checking %s: %w", path, errors.Join(errs...))
	}
	return pkg, nil
}

// importPrimary returns a module package checked from its non-test files,
// or a standard library package from export data.
func (m *module) importPrimary(path string) (*types.Package, error) {
	if pkg, ok := m.primary[path]; ok {
		return pkg, nil
	}
	p, ok := m.pkgs[path]
	if !ok {
		return m.std.Import(path)
	}
	files, err := m.parse(p, p.GoFiles)
	if err != nil {
		return nil, err
	}
	info := newInfo()
	pkg, err := m.check(path, files, importerFunc(m.importPrimary), info)
	if err != nil {
		return nil, err
	}
	m.primary[path] = pkg
	m.infos = append(m.infos, info)
	m.record(info, path)
	return pkg, nil
}

// checkAll checks every package three ways, as `go test` builds it: its
// non-test files; those plus its in-package tests; and its external test
// package against the second, with every module package that imports it
// rebuilt against that variant too.
func (m *module) checkAll() error {
	for _, path := range m.order {
		if _, err := m.importPrimary(path); err != nil {
			return err
		}
	}
	for _, path := range m.order {
		p := m.pkgs[path]
		withTests := m.primary[path]
		if len(p.TestGoFiles) > 0 {
			files, err := m.parse(p, append(append([]string{}, p.GoFiles...), p.TestGoFiles...))
			if err != nil {
				return err
			}
			info := newInfo()
			if withTests, err = m.check(path, files, importerFunc(m.importPrimary), info); err != nil {
				return err
			}
			m.record(info, path)
		}
		if len(p.XTestGoFiles) == 0 {
			continue
		}
		files, err := m.parse(p, p.XTestGoFiles)
		if err != nil {
			return err
		}
		info := newInfo()
		if _, err := m.check(path+"_test", files, m.testImporter(path, withTests), info); err != nil {
			return err
		}
		m.record(info, path)
	}
	return nil
}

// testImporter resolves imports for the external tests of under: under
// itself is its variant with in-package tests, and module packages that
// depend on it are checked again against that variant.
func (m *module) testImporter(under string, withTests *types.Package) types.Importer {
	rebuilt := map[string]*types.Package{under: withTests}
	var imp importerFunc
	imp = func(path string) (*types.Package, error) {
		if pkg, ok := rebuilt[path]; ok {
			return pkg, nil
		}
		if !m.dependsOn(path, under) {
			return m.importPrimary(path)
		}
		p := m.pkgs[path]
		files, err := m.parse(p, p.GoFiles)
		if err != nil {
			return nil, err
		}
		pkg, err := m.check(path, files, imp, nil)
		if err != nil {
			return nil, err
		}
		rebuilt[path] = pkg
		return pkg, nil
	}
	return imp
}

// dependsOn reports whether module package path imports dep, directly or
// through other module packages.
func (m *module) dependsOn(path, dep string) bool {
	p, ok := m.pkgs[path]
	if !ok {
		return false
	}
	for _, imp := range p.Imports {
		if imp == dep || m.dependsOn(imp, dep) {
			return true
		}
	}
	return false
}

func newInfo() *types.Info {
	return &types.Info{Uses: map[*ast.Ident]types.Object{}, Types: map[ast.Expr]types.TypeAndValue{}}
}

// record notes every function use in info as made by package path.
func (m *module) record(info *types.Info, path string) {
	for id, obj := range info.Uses {
		f, ok := obj.(*types.Func)
		if !ok {
			continue
		}
		test := strings.HasSuffix(m.fset.Position(id.Pos()).Filename, "_test.go")
		key := funcKey(f.Origin())
		m.uses[key] = append(m.uses[key], use{pkg: path, test: test})
	}
}

// used reports whether the function named key, declared in package decl,
// has a use other than from decl's own tests.
func (m *module) used(key, decl string) bool {
	for _, u := range m.uses[key] {
		if !u.test || u.pkg != decl {
			return true
		}
	}
	return false
}

// interfaces returns every interface with methods that the checked code
// can reach: those named in the scope of any package imported (module or
// standard library), those written in non-test module code, anonymous
// ones included, and implicitInterfaces.
func (m *module) interfaces() ([]*types.Interface, error) {
	var out []*types.Interface
	add := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok && it.NumMethods() > 0 && it.IsMethodSet() {
			if n, ok := t.(*types.Named); !ok || n.TypeParams().Len() == 0 {
				out = append(out, it)
			}
		}
	}
	seen := map[*types.Package]bool{}
	var visit func(*types.Package)
	visit = func(pkg *types.Package) {
		if seen[pkg] {
			return
		}
		seen[pkg] = true
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				add(tn.Type())
			}
		}
		for _, imp := range pkg.Imports() {
			visit(imp)
		}
	}
	for _, path := range m.order {
		visit(m.primary[path])
	}
	for _, info := range m.infos {
		for _, tv := range info.Types {
			if tv.Type != nil {
				add(tv.Type)
			}
		}
	}
	f, err := parser.ParseFile(m.fset, "implicit.go", implicitInterfaces, 0)
	if err != nil {
		return nil, err
	}
	implicit, err := m.check("implicit", []*ast.File{f}, importerFunc(m.importPrimary), nil)
	if err != nil {
		return nil, err
	}
	visit(implicit)
	return out, nil
}

// exportedFuncs returns the exported functions and methods declared in
// pkg, methods of unexported types included.
func exportedFuncs(pkg *types.Package) []*types.Func {
	var out []*types.Func
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		switch obj := scope.Lookup(name).(type) {
		case *types.Func:
			if obj.Exported() {
				out = append(out, obj)
			}
		case *types.TypeName:
			n, ok := obj.Type().(*types.Named)
			if !ok || obj.IsAlias() {
				continue
			}
			for i := 0; i < n.NumMethods(); i++ {
				if f := n.Method(i); f.Exported() {
					out = append(out, f)
				}
			}
		}
	}
	return out
}

// satisfiesInterface reports whether method f is named by an interface
// that its receiver type or a pointer to it implements.
func satisfiesInterface(f *types.Func, ifaces []*types.Interface) bool {
	recv := f.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	for _, it := range ifaces {
		for i := 0; i < it.NumMethods(); i++ {
			if it.Method(i).Name() != f.Name() {
				continue
			}
			if types.Implements(t, it) || types.Implements(types.NewPointer(t), it) {
				return true
			}
		}
	}
	return false
}

// funcKey names a function as "pkgpath.Name", "pkgpath.T.Name" or
// "pkgpath.(*T).Name", the same for every type-check of its package.
func funcKey(f *types.Func) string {
	name := f.Name()
	if recv := f.Type().(*types.Signature).Recv(); recv != nil {
		t, ptr := recv.Type(), false
		if p, ok := t.(*types.Pointer); ok {
			t, ptr = p.Elem(), true
		}
		typ := types.TypeString(t, func(*types.Package) string { return "" })
		if n, ok := t.(*types.Named); ok {
			typ = n.Obj().Name()
		}
		if ptr {
			typ = "(*" + typ + ")"
		}
		name = typ + "." + name
	}
	if f.Pkg() == nil {
		return name // a method of the universe's error
	}
	return f.Pkg().Path() + "." + name
}
