// Package deadsurface holds one gate, TestDeadSurface: every package-level
// identifier of the module is referenced by some non-test file, or is listed
// in allow.txt with the reason it stays. The package has no non-test code;
// it type-checks the module's source with go/types and nothing outside the
// standard library.
package deadsurface

import (
	"bufio"
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
	"slices"
	"sort"
	"strings"
	"testing"
)

// TestDeadSurface type-checks the module and bench/ (a module of its own that
// builds against this one) and fails on an identifier no non-test file
// references that allow.txt does not list, and on an allow.txt entry that is
// no longer a hit or gives no reason.
func TestDeadSurface(t *testing.T) {
	root := filepath.Join("..", "..", "..")
	res, err := scan(root, filepath.Join(root, "bench"))
	if err != nil {
		t.Fatal(err)
	}
	allow, err := readAllow("allow.txt")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range problems(res.hits, allow) {
		t.Error(p)
	}

	t.Logf("%d hits, %d of them in allow.txt", len(res.hits), len(allow.entries))
	for _, h := range res.hits {
		if _, ok := allow.reason[h.id]; !ok {
			t.Logf("  hit %s (%s)", h.id, h.pos)
		}
	}
	for _, c := range allow.categories {
		t.Logf("allowed, %s: %d", c.name, len(c.ids))
		for _, id := range c.ids {
			t.Logf("  %s", id)
		}
	}
	t.Logf("only bench/ calls %d identifiers", len(res.callerOnly))
	for _, h := range res.callerOnly {
		t.Logf("  %s (%s)", h.id, h.pos)
	}
}

// TestScanFixture: the scan of testdata/lib reports exactly the identifiers
// whose comments there say so.
func TestScanFixture(t *testing.T) {
	lib := filepath.Join("testdata", "lib")
	res, err := scan(lib, filepath.Join(lib, "caller"))
	if err != nil {
		t.Fatal(err)
	}
	wantHits := []string{"lib.Box.Put", "lib.TestOnly", "lib.onlyExcluded", "lib.recursive", "lib.unused"}
	if got := ids(res.hits); !slices.Equal(got, wantHits) {
		t.Errorf("hits %v, want %v", got, wantHits)
	}
	if got, want := ids(res.callerOnly), []string{"lib.Far"}; !slices.Equal(got, want) {
		t.Errorf("caller-only %v, want %v", got, want)
	}

	listed := "# fixture\nlib.Box.Put a\nlib.TestOnly b\nlib.onlyExcluded c\nlib.recursive d\nlib.unused e\n"
	if p := problems(res.hits, parseAllow(listed)); len(p) != 0 {
		t.Errorf("every hit listed with a reason: %v", p)
	}
	for _, c := range []struct{ name, allow, want string }{
		{"unlisted hit", strings.Replace(listed, "lib.unused e\n", "", 1), "lib.unused is referenced by no non-test file"},
		{"stale entry", listed + "lib.Used f\n", "lib.Used, which is no longer a hit"},
		{"entry without a reason", strings.Replace(listed, "lib.unused e", "lib.unused", 1), "no reason for lib.unused"},
		{"entry listed twice", listed + "lib.unused e\n", "lists lib.unused twice"},
	} {
		p := problems(res.hits, parseAllow(c.allow))
		if len(p) != 1 || !strings.Contains(p[0], c.want) {
			t.Errorf("%s: problems %q, want one containing %q", c.name, p, c.want)
		}
	}
}

// TestScanTypeError: a package that does not type-check fails the scan
// rather than being skipped — it could not say what it references.
func TestScanTypeError(t *testing.T) {
	_, err := scan(filepath.Join("testdata", "broken"))
	if err == nil || !strings.Contains(err.Error(), "type-checking broken") {
		t.Fatalf("scan of a package with a type error: %v", err)
	}
}

func ids(hs []hit) []string {
	var out []string
	for _, h := range hs {
		out = append(out, h.id)
	}
	return out
}

// A hit is one package-level identifier: its import path, type (for a
// method) and name joined by dots, and where it is declared.
type hit struct {
	id  string
	pos token.Position
}

type result struct {
	// hits: no non-test file references the identifier, and it implements
	// no interface method.
	hits []hit
	// callerOnly: only the caller modules reference the identifier.
	callerOnly []hit
}

type module struct {
	dir, path string
	caller    bool
}

type pkg struct {
	mod   *module
	files []*ast.File
	types *types.Package
	info  *types.Info
}

// loader type-checks the modules' packages from source, each once, and
// imports every other path (the standard library) through the "source"
// importer: the toolchain ships no export data to read.
type loader struct {
	fset    *token.FileSet
	ctx     build.Context
	mods    []*module
	pkgs    map[string]*pkg
	loading map[string]bool
	order   []*pkg
	std     types.ImporterFrom
}

// scan type-checks every non-test file that the host build context selects
// in the module at mainDir and in each caller module, and reports the main
// module's package-level identifiers that no non-test file references.
// Caller modules count as callers; their own identifiers are not reported.
func scan(mainDir string, callerDirs ...string) (*result, error) {
	l := &loader{
		fset:    token.NewFileSet(),
		ctx:     build.Default,
		pkgs:    map[string]*pkg{},
		loading: map[string]bool{},
	}
	// The "source" importer reads build.Default. The standard library's cgo
	// files need not go through cgo: its pure-Go files declare the same API.
	defer func(cgo bool) { build.Default.CgoEnabled = cgo }(build.Default.CgoEnabled)
	build.Default.CgoEnabled = false
	l.std = importer.ForCompiler(l.fset, "source", nil).(types.ImporterFrom)

	for i, dir := range append([]string{mainDir}, callerDirs...) {
		path, err := modulePath(dir)
		if err != nil {
			return nil, err
		}
		l.mods = append(l.mods, &module{dir: dir, path: path, caller: i > 0})
	}
	for _, m := range l.mods {
		if err := l.loadModule(m); err != nil {
			return nil, err
		}
	}
	return l.report(), nil
}

func modulePath(dir string) (string, error) {
	f, err := os.Open(filepath.Join(dir, "go.mod"))
	if err != nil {
		return "", err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(sc.Text()), "module "); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`), nil
		}
	}
	return "", fmt.Errorf("%s: no module line", filepath.Join(dir, "go.mod"))
}

// loadModule loads every package under m.dir except those of a nested module
// (a directory with its own go.mod) and those in testdata or in a directory
// whose name starts with "." or "_", as the go command does.
func (l *loader) loadModule(m *module) error {
	return filepath.WalkDir(m.dir, func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if dir != m.dir {
			name := d.Name()
			if name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
				return filepath.SkipDir
			}
		}
		rel, err := filepath.Rel(m.dir, dir)
		if err != nil {
			return err
		}
		path := m.path
		if rel != "." {
			path += "/" + filepath.ToSlash(rel)
		}
		_, err = l.load(path, m, dir)
		return err
	})
}

// owner returns the module whose path is the longest prefix of an import
// path, or nil for a path outside the modules.
func (l *loader) owner(path string) *module {
	var best *module
	for _, m := range l.mods {
		if (path == m.path || strings.HasPrefix(path, m.path+"/")) && (best == nil || len(m.path) > len(best.path)) {
			best = m
		}
	}
	return best
}

func (l *loader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, "", 0)
}

func (l *loader) ImportFrom(path, srcDir string, mode types.ImportMode) (*types.Package, error) {
	m := l.owner(path)
	if m == nil {
		return l.std.ImportFrom(path, srcDir, mode)
	}
	dir := filepath.Join(m.dir, filepath.FromSlash(strings.TrimPrefix(strings.TrimPrefix(path, m.path), "/")))
	p, err := l.load(path, m, dir)
	if err != nil {
		return nil, err
	}
	if p == nil {
		return nil, fmt.Errorf("%s: no non-test Go files", path)
	}
	return p.types, nil
}

// load parses and type-checks the package in dir, or returns nil for a
// directory without non-test Go files. A type error is an error: a package
// that does not check cannot say what it references.
func (l *loader) load(path string, m *module, dir string) (*pkg, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("import cycle through %s", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	bp, err := l.ctx.ImportDir(dir, 0)
	var noGo *build.NoGoError
	if errors.As(err, &noGo) {
		l.pkgs[path] = nil
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	p := &pkg{mod: m, info: &types.Info{
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
		Types: map[ast.Expr]types.TypeAndValue{},
	}}
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		p.files = append(p.files, f)
	}
	conf := types.Config{Importer: l, Sizes: types.SizesFor("gc", l.ctx.GOARCH)}
	p.types, err = conf.Check(path, l.fset, p.files, p.info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %w", path, err)
	}
	l.pkgs[path] = p
	l.order = append(l.order, p)
	return p, nil
}

// span is a source range that declares objects: a top-level func or method,
// or one spec of a top-level type, var or const declaration. A reference from
// inside the span to one of its own objects does not count, nor does a
// method's receiver count as a reference to its type.
type span struct {
	pos, end token.Pos
	objs     []types.Object
}

// report collects the main module's package-level identifiers, marks those
// some non-test file references, and returns the rest less the methods that
// implement an interface method.
func (l *loader) report() *result {
	type use struct{ main, caller bool }
	uses := map[types.Object]*use{}
	for _, p := range l.order {
		if p.mod.caller {
			continue
		}
		for _, name := range p.types.Scope().Names() {
			obj := p.types.Scope().Lookup(name)
			if name == "_" || (name == "init" || name == "main") && isFunc(obj) {
				continue
			}
			uses[obj] = &use{}
		}
	}
	for _, named := range l.definedTypes() {
		for i := 0; i < named.NumMethods(); i++ {
			uses[named.Method(i)] = &use{}
		}
	}

	var spans []span
	var receivers [][2]token.Pos
	for _, p := range l.order {
		for _, f := range p.files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					spans = append(spans, span{d.Pos(), d.End(), []types.Object{p.info.Defs[d.Name]}})
					if d.Recv != nil {
						receivers = append(receivers, [2]token.Pos{d.Recv.Pos(), d.Recv.End()})
					}
				case *ast.GenDecl:
					for _, s := range d.Specs {
						sp := span{pos: s.Pos(), end: s.End()}
						switch s := s.(type) {
						case *ast.TypeSpec:
							sp.objs = append(sp.objs, p.info.Defs[s.Name])
						case *ast.ValueSpec:
							for _, n := range s.Names {
								sp.objs = append(sp.objs, p.info.Defs[n])
							}
						}
						spans = append(spans, sp)
					}
				}
			}
		}
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].pos < spans[j].pos })
	sort.Slice(receivers, func(i, j int) bool { return receivers[i][0] < receivers[j][0] })

	for _, p := range l.order {
		for id, obj := range p.info.Uses {
			u := uses[origin(obj)]
			if u == nil || within(receivers, id.Pos()) || declares(spans, id.Pos(), origin(obj)) {
				continue
			}
			if p.mod.caller {
				u.caller = true
			} else {
				u.main = true
			}
		}
	}

	exempt := l.implementers()
	res := &result{}
	for obj, u := range uses {
		h := hit{id: objectID(obj), pos: l.fset.Position(obj.Pos())}
		if rel, err := filepath.Rel(l.mods[0].dir, h.pos.Filename); err == nil {
			h.pos.Filename = rel
		}
		switch {
		case u.main || exempt[obj]:
		case u.caller:
			res.callerOnly = append(res.callerOnly, h)
		default:
			res.hits = append(res.hits, h)
		}
	}
	sort.Slice(res.hits, func(i, j int) bool { return res.hits[i].id < res.hits[j].id })
	sort.Slice(res.callerOnly, func(i, j int) bool { return res.callerOnly[i].id < res.callerOnly[j].id })
	return res
}

// implementers returns the methods of the main module's named types that
// implement a method of an interface declared in the modules (by name or as a
// literal), in a standard package they import, or error. A call through the
// interface references the interface's method, never these.
func (l *loader) implementers() map[types.Object]bool {
	ifaces := []types.Type{types.Universe.Lookup("error").Type()}
	addNamed := func(s *types.Scope) {
		for _, name := range s.Names() {
			if tn, ok := s.Lookup(name).(*types.TypeName); ok {
				if n, ok := tn.Type().(*types.Named); ok && types.IsInterface(n) && n.Underlying().(*types.Interface).NumMethods() > 0 {
					ifaces = append(ifaces, n)
				}
			}
		}
	}
	imported := map[*types.Package]bool{}
	for _, p := range l.order {
		addNamed(p.types.Scope())
		for _, tv := range p.info.Types {
			if it, ok := tv.Type.(*types.Interface); ok && it.NumMethods() > 0 {
				ifaces = append(ifaces, it)
			}
		}
		for _, imp := range p.types.Imports() {
			if l.owner(imp.Path()) == nil && !imported[imp] {
				imported[imp] = true
				addNamed(imp.Scope())
			}
		}
	}

	exempt := map[types.Object]bool{}
	for _, named := range l.definedTypes() {
		// A generic type is instantiated with its own type parameters, and a
		// generic interface with the same ones where it takes as many:
		// convStep[F] implements step[F].
		var args []types.Type
		for i := 0; i < named.TypeParams().Len(); i++ {
			args = append(args, named.TypeParams().At(i))
		}
		typ, err := instantiate(named, args)
		if err != nil {
			continue
		}
		ptr := types.NewPointer(typ)
		for _, iface := range ifaces {
			iface, err := instantiate(iface, args)
			if err != nil {
				continue
			}
			it := iface.Underlying().(*types.Interface)
			if !types.Implements(ptr, it) {
				continue
			}
			for i := 0; i < it.NumMethods(); i++ {
				m, _, _ := types.LookupFieldOrMethod(ptr, true, named.Obj().Pkg(), it.Method(i).Name())
				if m != nil {
					exempt[origin(m)] = true
				}
			}
		}
	}
	return exempt
}

// definedTypes returns the main module's package-level defined types other
// than interfaces: the types whose methods the gate checks.
func (l *loader) definedTypes() []*types.Named {
	var out []*types.Named
	for _, p := range l.order {
		if p.mod.caller {
			continue
		}
		for _, name := range p.types.Scope().Names() {
			tn, ok := p.types.Scope().Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			if named, ok := tn.Type().(*types.Named); ok && !types.IsInterface(named) {
				out = append(out, named)
			}
		}
	}
	return out
}

// instantiate instantiates a generic named type with args, and returns any
// other type as it is.
func instantiate(t types.Type, args []types.Type) (types.Type, error) {
	n, ok := t.(*types.Named)
	if !ok || n.TypeParams().Len() == 0 {
		return t, nil
	}
	if n.TypeParams().Len() != len(args) {
		return nil, fmt.Errorf("%s takes %d type arguments, not %d", n, n.TypeParams().Len(), len(args))
	}
	return types.Instantiate(nil, n, args, true)
}

func isFunc(obj types.Object) bool {
	_, ok := obj.(*types.Func)
	return ok
}

// origin maps a method or field of an instantiated generic type to its
// declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// within reports whether pos lies in one of the sorted, disjoint ranges.
func within(ranges [][2]token.Pos, pos token.Pos) bool {
	i := sort.Search(len(ranges), func(i int) bool { return ranges[i][0] > pos })
	return i > 0 && pos < ranges[i-1][1]
}

// declares reports whether pos lies in the span that declares obj.
func declares(spans []span, pos token.Pos, obj types.Object) bool {
	i := sort.Search(len(spans), func(i int) bool { return spans[i].pos > pos })
	if i == 0 || pos >= spans[i-1].end {
		return false
	}
	for _, o := range spans[i-1].objs {
		if o == obj {
			return true
		}
	}
	return false
}

// objectID names obj as allow.txt does: import path, then for a method its
// receiver's type name, then the name, joined by dots.
func objectID(obj types.Object) string {
	if f, ok := obj.(*types.Func); ok {
		if recv := f.Type().(*types.Signature).Recv(); recv != nil {
			t := recv.Type()
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			return obj.Pkg().Path() + "." + t.(*types.Named).Obj().Name() + "." + obj.Name()
		}
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// allowList is allow.txt: lines of "<id> <reason>", grouped under "# <category>"
// lines; blank lines separate nothing.
type allowList struct {
	entries    []string
	reason     map[string]string
	categories []category
}

type category struct {
	name string
	ids  []string
}

func readAllow(path string) (*allowList, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return parseAllow(string(b)), nil
}

func parseAllow(s string) *allowList {
	a := &allowList{reason: map[string]string{}}
	for _, line := range strings.Split(s, "\n") {
		line = strings.TrimSpace(line)
		switch {
		case line == "":
		case strings.HasPrefix(line, "#"):
			a.categories = append(a.categories, category{name: strings.TrimSpace(line[1:])})
		default:
			id, reason, _ := strings.Cut(line, " ")
			a.entries = append(a.entries, id)
			a.reason[id] = strings.TrimSpace(reason)
			if len(a.categories) == 0 {
				a.categories = append(a.categories, category{name: "uncategorised"})
			}
			c := &a.categories[len(a.categories)-1]
			c.ids = append(c.ids, id)
		}
	}
	return a
}

// problems lists what fails the gate: a hit allow.txt does not list, and an
// entry that is listed twice, gives no reason or is no longer a hit.
func problems(hits []hit, a *allowList) []string {
	var out []string
	isHit := map[string]bool{}
	for _, h := range hits {
		isHit[h.id] = true
		if _, ok := a.reason[h.id]; !ok {
			out = append(out, fmt.Sprintf("%s: %s is referenced by no non-test file; delete it, or list it in allow.txt with the reason it stays", h.pos, h.id))
		}
	}
	seen := map[string]bool{}
	for _, id := range a.entries {
		switch {
		case seen[id]:
			out = append(out, fmt.Sprintf("allow.txt lists %s twice", id))
		case a.reason[id] == "":
			out = append(out, fmt.Sprintf("allow.txt gives no reason for %s", id))
		case !isHit[id]:
			out = append(out, fmt.Sprintf("allow.txt lists %s, which is no longer a hit: remove the entry", id))
		}
		seen[id] = true
	}
	return out
}
