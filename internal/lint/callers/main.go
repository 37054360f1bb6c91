// Command callers fails when an exported name declared in a non-test file
// under internal/ has no reference from non-test code, unless allowlist.txt
// names it with a reason. It checks package-level funcs, types, vars and
// consts, and the exported methods and struct fields of package-level
// types. A reference from any module under the root counts: the main module
// and the modules nested in it (bench/npbench). Test code is every _test.go
// file and internal/testutil; its declarations are not checked and its
// references do not count. A method that implements an interface method,
// from the module or from the standard library, is skipped, since a call
// through the interface reaches it without naming it.
//
// It also fails on a stale allowlist entry: one whose name is referenced
// now, or names nothing. Run it from the repository root:
//
//	go run ./internal/lint/callers
//
// It needs no network: the standard library is type-checked from GOROOT's
// source.
package main

import (
	_ "embed"
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// allowlistPath is where allowlist.txt sits, for messages.
const allowlistPath = "internal/lint/callers/allowlist.txt"

//go:embed allowlist.txt
var allowlistText string

// testutilDir is the one package outside _test.go files that counts as
// test code.
const testutilDir = "internal/testutil"

func main() {
	root, err := os.Getwd()
	if err == nil {
		err = run(root)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run(root string) error {
	allow, err := parseAllowlist(allowlistText)
	if err != nil {
		return err
	}
	l, err := newLoader(root)
	if err != nil {
		return err
	}
	if err := l.loadAll(); err != nil {
		return err
	}
	used := l.references()
	ifaces := l.interfacesByMethod()

	var problems []string
	found := map[string]bool{}
	for _, c := range l.candidates() {
		if c.method != nil && implementsInterface(c.method, ifaces) {
			continue
		}
		found[c.key] = true
		_, listed := allow[c.key]
		switch {
		case used[c.obj] && listed:
			problems = append(problems, fmt.Sprintf("%s:%d: %s is referenced now; remove its allowlist entry",
				allowlistPath, allow[c.key], c.key))
		case !used[c.obj] && !listed:
			problems = append(problems, fmt.Sprintf("%s: %s has no reference outside tests; delete it or allowlist it with a reason",
				l.position(c.obj.Pos()), c.key))
		}
	}
	for key, line := range allow {
		if !found[key] {
			problems = append(problems, fmt.Sprintf("%s:%d: %s names no exported declaration; remove its allowlist entry",
				allowlistPath, line, key))
		}
	}
	if len(problems) > 0 {
		sort.Strings(problems)
		return errors.New(strings.Join(problems, "\n"))
	}
	return nil
}

// parseAllowlist reads "key reason..." lines, skipping blank lines and
// # comments, and returns each key's line number.
func parseAllowlist(text string) (map[string]int, error) {
	allow := map[string]int{}
	for i, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		key, reason, _ := strings.Cut(line, " ")
		if strings.TrimSpace(reason) == "" {
			return nil, fmt.Errorf("%s:%d: entry %s gives no reason", allowlistPath, i+1, key)
		}
		if _, dup := allow[key]; dup {
			return nil, fmt.Errorf("%s:%d: entry %s is listed twice", allowlistPath, i+1, key)
		}
		allow[key] = i + 1
	}
	return allow, nil
}

// module is one go.mod under the root: its module path and directory.
type module struct{ path, dir string }

// pkg is one type-checked package of a module, non-test files only.
type pkg struct {
	rel   string // directory relative to the root, slash-separated
	files []*ast.File
	types *types.Package
	info  *types.Info
}

// loader type-checks the modules' packages from source, one *types.Package
// per import path, so a reference and its declaration share one object.
// Standard-library imports go to the source importer.
type loader struct {
	root string
	fset *token.FileSet
	mods []module
	std  types.Importer
	pkgs map[string]*pkg // by import path
}

func newLoader(root string) (*loader, error) {
	// Type-check the standard library without cgo, so that no C toolchain
	// runs: the pure-Go files declare the same exported API.
	build.Default.CgoEnabled = false
	fset := token.NewFileSet()
	l := &loader{
		root: root,
		fset: fset,
		std:  importer.ForCompiler(fset, "source", nil),
		pkgs: map[string]*pkg{},
	}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && skipDir(d.Name()) {
				return filepath.SkipDir
			}
			return nil
		}
		if d.Name() != "go.mod" {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, line := range strings.Split(string(data), "\n") {
			if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
				l.mods = append(l.mods, module{path: strings.Trim(strings.TrimSpace(rest), `"`), dir: filepath.Dir(path)})
				return nil
			}
		}
		return fmt.Errorf("%s: no module line", path)
	})
	if err != nil {
		return nil, err
	}
	if len(l.mods) == 0 {
		return nil, fmt.Errorf("%s: no go.mod; run from the repository root", root)
	}
	// Longest module path first, so a nested module wins its own paths.
	sort.Slice(l.mods, func(i, j int) bool { return len(l.mods[i].path) > len(l.mods[j].path) })
	return l, nil
}

func skipDir(name string) bool {
	return strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata" || name == "vendor"
}

// loadAll type-checks every package directory of every module.
func (l *loader) loadAll() error {
	for _, m := range l.mods {
		err := filepath.WalkDir(m.dir, func(path string, d fs.DirEntry, err error) error {
			if err != nil || !d.IsDir() {
				return err
			}
			if path != m.dir && skipDir(d.Name()) {
				return filepath.SkipDir
			}
			if path != m.dir {
				if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
					return filepath.SkipDir // a nested module walks itself
				}
			}
			rel, err := filepath.Rel(m.dir, path)
			if err != nil {
				return err
			}
			importPath := m.path
			if rel != "." {
				importPath += "/" + filepath.ToSlash(rel)
			}
			_, err = l.load(importPath)
			return err
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// Import implements types.Importer.
func (l *loader) Import(path string) (*types.Package, error) {
	p, err := l.load(path)
	if err != nil {
		return nil, err
	}
	if p == nil {
		return l.std.Import(path)
	}
	return p.types, nil
}

// load type-checks the module package at importPath once. It returns nil,
// nil for a path outside the modules and for a directory with no non-test
// Go files.
func (l *loader) load(importPath string) (*pkg, error) {
	if p, ok := l.pkgs[importPath]; ok {
		return p, nil
	}
	dir := l.dirOf(importPath)
	if dir == "" {
		return nil, nil
	}
	bp, err := build.Default.ImportDir(dir, 0)
	var noGo *build.NoGoError
	if errors.As(err, &noGo) || (err == nil && len(bp.GoFiles) == 0) {
		l.pkgs[importPath] = nil
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	rel, err := filepath.Rel(l.root, dir)
	if err != nil {
		return nil, err
	}
	p := &pkg{rel: filepath.ToSlash(rel)}
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		p.files = append(p.files, f)
	}
	p.info = &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}
	conf := types.Config{Importer: l}
	p.types, err = conf.Check(importPath, l.fset, p.files, p.info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %w", importPath, err)
	}
	l.pkgs[importPath] = p
	return p, nil
}

// dirOf maps a module import path to its directory, or "" for a path no
// module under the root holds.
func (l *loader) dirOf(importPath string) string {
	for _, m := range l.mods {
		if importPath == m.path {
			return m.dir
		}
		if rest, ok := strings.CutPrefix(importPath, m.path+"/"); ok {
			return filepath.Join(m.dir, filepath.FromSlash(rest))
		}
	}
	return ""
}

func (l *loader) sorted() []*pkg {
	var out []*pkg
	for _, p := range l.pkgs {
		if p != nil {
			out = append(out, p)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].rel < out[j].rel })
	return out
}

func isTest(rel string) bool {
	return rel == testutilDir || strings.HasPrefix(rel, testutilDir+"/")
}

// references returns every object that non-test code names, with methods
// and fields of generic types mapped to their origin.
func (l *loader) references() map[types.Object]bool {
	used := map[types.Object]bool{}
	for _, p := range l.sorted() {
		if isTest(p.rel) {
			continue
		}
		for _, obj := range p.info.Uses {
			used[origin(obj)] = true
		}
	}
	return used
}

func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// candidate is one exported declaration the check wants a reference to.
type candidate struct {
	key    string
	obj    types.Object
	method *types.Func // set for a method
}

// candidates lists the exported declarations in non-test files under
// internal/.
func (l *loader) candidates() []candidate {
	var out []candidate
	for _, p := range l.sorted() {
		if !strings.HasPrefix(p.rel, "internal/") || isTest(p.rel) {
			continue
		}
		add := func(key string, id *ast.Ident) {
			if obj := p.info.Defs[id]; obj != nil && id.IsExported() {
				c := candidate{key: p.rel + "." + key, obj: obj}
				if fn, ok := obj.(*types.Func); ok && fn.Type().(*types.Signature).Recv() != nil {
					c.method = fn
				}
				out = append(out, c)
			}
		}
		for _, f := range p.files {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if d.Recv == nil {
						add(d.Name.Name, d.Name)
					} else {
						add(recvName(d.Recv.List[0].Type)+"."+d.Name.Name, d.Name)
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch s := spec.(type) {
						case *ast.ValueSpec:
							for _, id := range s.Names {
								add(id.Name, id)
							}
						case *ast.TypeSpec:
							add(s.Name.Name, s.Name)
							if st, ok := s.Type.(*ast.StructType); ok {
								for _, field := range st.Fields.List {
									for _, id := range field.Names {
										add(s.Name.Name+"."+id.Name, id)
									}
								}
							}
						}
					}
				}
			}
		}
	}
	return out
}

// recvName is a receiver's base type name: T for T, *T, T[P] and *T[P].
func recvName(expr ast.Expr) string {
	for {
		switch e := expr.(type) {
		case *ast.StarExpr:
			expr = e.X
		case *ast.IndexExpr:
			expr = e.X
		case *ast.IndexListExpr:
			expr = e.X
		case *ast.ParenExpr:
			expr = e.X
		case *ast.Ident:
			return e.Name
		default:
			return fmt.Sprintf("%T", expr)
		}
	}
}

// interfacesByMethod indexes, by method name, every interface the modules'
// code could be called through: each named interface declared in a module
// package or in any standard-library package they import, directly or not,
// and each interface type written out in module code.
func (l *loader) interfacesByMethod() map[string][]*types.Interface {
	byName := map[string][]*types.Interface{}
	seen := map[*types.Interface]bool{}
	addIface := func(t types.Type) {
		if n, ok := t.(*types.Named); ok && n.TypeParams().Len() > 0 {
			return
		}
		it, ok := t.Underlying().(*types.Interface)
		if !ok || seen[it] {
			return
		}
		seen[it] = true
		for i := 0; i < it.NumMethods(); i++ {
			name := it.Method(i).Name()
			byName[name] = append(byName[name], it)
		}
	}
	addIface(types.Universe.Lookup("error").Type())
	for _, it := range errorsInterfaces() {
		addIface(it)
	}
	visited := map[*types.Package]bool{}
	var walk func(tp *types.Package)
	walk = func(tp *types.Package) {
		if visited[tp] {
			return
		}
		visited[tp] = true
		scope := tp.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				addIface(tn.Type())
			}
		}
		for _, imp := range tp.Imports() {
			walk(imp)
		}
	}
	for _, p := range l.sorted() {
		walk(p.types)
		for _, tv := range p.info.Types {
			if tv.IsType() {
				addIface(tv.Type)
			}
		}
	}
	return byName
}

// errorsInterfaces returns the interfaces package errors asserts inside its
// function bodies, which the source importer does not type-check.
func errorsInterfaces() []types.Type {
	const src = `package errors
type (
	unwrapper      interface{ Unwrap() error }
	multiUnwrapper interface{ Unwrap() []error }
	iser           interface{ Is(error) bool }
	aser           interface{ As(any) bool }
)`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "errors.go", src, 0)
	if err != nil {
		panic(err)
	}
	tp, err := new(types.Config).Check("errors", fset, []*ast.File{f}, nil)
	if err != nil {
		panic(err)
	}
	var out []types.Type
	for _, name := range tp.Scope().Names() {
		out = append(out, tp.Scope().Lookup(name).Type())
	}
	return out
}

// implementsInterface reports whether m's receiver type, as a value or a
// pointer, implements an interface that has a method named like m.
func implementsInterface(m *types.Func, byName map[string][]*types.Interface) bool {
	recv := m.Type().(*types.Signature).Recv().Type()
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	named, ok := recv.(*types.Named)
	if !ok || named.TypeParams().Len() > 0 {
		return false
	}
	for _, it := range byName[m.Name()] {
		if it.NumMethods() > 0 && (types.Implements(named, it) || types.Implements(types.NewPointer(named), it)) {
			return true
		}
	}
	return false
}

func (l *loader) position(pos token.Pos) string {
	p := l.fset.Position(pos)
	if rel, err := filepath.Rel(l.root, p.Filename); err == nil {
		p.Filename = filepath.ToSlash(rel)
	}
	return fmt.Sprintf("%s:%d", p.Filename, p.Line)
}
