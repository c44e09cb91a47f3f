package zskyline_test

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// exportAllowlist names the exported names under internal/ that no
// non-test file uses but that stay on purpose, keyed
// "internal/<pkg>.<Name>" for a package-level name and
// "internal/<pkg>.<Type>.<Method>" for a method, each with its reason.
var exportAllowlist = map[string]string{
	"internal/dominance.BruteForce": "the all-pairs oracle the dominance, plan, parallel, maintain, window and zbtree tests check every provider against",
	"internal/dominance.Register":   "the hook for custom provider kinds; the dominance and parallel tests register a test kind through it",
	"internal/zorder.Equal":         "Z-address equality the zorder, zbtree and plan tests compare encoded columns with",
}

// TestInternalExportsHaveCallers fails when an exported package-level
// name or an exported method under internal/ has no caller in a
// non-test file of the module, unless exportAllowlist names it. It also
// fails on an allowlist entry that is no longer declared or that gained
// a caller.
func TestInternalExportsHaveCallers(t *testing.T) {
	uncalled, err := uncalledExports(".")
	if err != nil {
		t.Fatal(err)
	}
	dead, stale := splitAllowed(uncalled, exportAllowlist)
	for _, name := range dead {
		t.Errorf("%s has no non-test caller: delete it, or add it to exportAllowlist with a reason", name)
	}
	for _, name := range stale {
		t.Errorf("exportAllowlist entry %s is not an uncalled export any more: remove the entry", name)
	}
}

// TestUncalledExportsFixture runs the scan on a small module under
// testdata. Its package-level names are one live function (called only
// from cmd/), one dead one (called only from a _test.go file), one
// allowlisted one and a type named only in its own method's receiver,
// at different directory levels, so a walk that misses a directory or
// counts a test file shows up as a wrong answer. Its methods are one
// with no caller (on that type), one called only from a _test.go
// file, and one reached by each rule: called from cmd/, through a
// module interface, as a fmt.Stringer, and on a type the root package
// aliases (and one promoted from a type that alias embeds).
func TestUncalledExportsFixture(t *testing.T) {
	uncalled, err := uncalledExports(filepath.Join("testdata", "exports"))
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"internal/lib.Allowed",
		"internal/lib.Orphan",
		"internal/lib.Orphan.Unused",
		"internal/lib/deep.Box.TestOnly",
		"internal/lib/deep.Dead",
	}
	if !reflect.DeepEqual(uncalled, want) {
		t.Fatalf("uncalled = %q, want %q", uncalled, want)
	}
	dead, stale := splitAllowed(uncalled, map[string]string{
		"internal/lib.Allowed":       "fixture entry",
		"internal/lib.Orphan":        "fixture entry",
		"internal/lib.Gone":          "fixture entry that is not declared",
		"internal/lib.T.String":      "fixture entry for a method that is called",
		"internal/lib.Orphan.Unused": "fixture method entry",
		"internal/lib.T.Missing":     "fixture method entry that is not declared",
	})
	if want := []string{"internal/lib/deep.Box.TestOnly", "internal/lib/deep.Dead"}; !reflect.DeepEqual(dead, want) {
		t.Fatalf("dead = %q, want %q", dead, want)
	}
	if want := []string{"internal/lib.Gone", "internal/lib.T.Missing", "internal/lib.T.String"}; !reflect.DeepEqual(stale, want) {
		t.Fatalf("stale = %q, want %q", stale, want)
	}
}

// splitAllowed splits the uncalled names into those allow does not
// excuse and the allow entries that are not uncalled, both sorted.
func splitAllowed(uncalled []string, allow map[string]string) (dead, stale []string) {
	seen := make(map[string]bool, len(uncalled))
	for _, name := range uncalled {
		seen[name] = true
		if _, ok := allow[name]; !ok {
			dead = append(dead, name)
		}
	}
	for name := range allow {
		if !seen[name] {
			stale = append(stale, name)
		}
	}
	sort.Strings(stale)
	return dead, stale
}

// runtimeInterfaces are the standard-library interfaces that reflection
// or the runtime calls through: a method that satisfies one counts as
// called.
const runtimeInterfaces = `package runtimeinterfaces

import (
	"encoding"
	"fmt"
	"net/http"
)

type (
	stringer          = fmt.Stringer
	err               = error
	unwrapper         interface{ Unwrap() error }
	binaryMarshaler   = encoding.BinaryMarshaler
	binaryUnmarshaler = encoding.BinaryUnmarshaler
	flusher           = http.Flusher
)
`

// uncalledExports type-checks the module rooted at root (see loadModule)
// and returns, sorted and keyed by the directory relative to root, each
// exported name declared under internal/ that no non-test file uses.
//
// A package-level func, type, var or const is used when a non-test file
// names it anywhere but in a method's receiver, so that a type its own
// methods mention is not live for it. A method, exported on any type,
// counts as called when
//   - a non-test file selects it (a call, a method value or a method
//     expression);
//   - it satisfies an interface method a non-test file selects;
//   - it satisfies one of runtimeInterfaces; or
//   - its type is public API: an exported type of the root package
//     aliases it or embeds it, directly or through such a type.
func uncalledExports(root string) ([]string, error) {
	pkgs, imp, err := loadModule(root)
	if err != nil {
		return nil, err
	}

	used := map[types.Object]bool{}
	dispatched := map[*types.Func]bool{} // interface methods a file selects
	var public []types.Type
	for _, p := range pkgs {
		receivers := map[*ast.Ident]bool{}
		for _, f := range p.files {
			for _, decl := range f.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv != nil {
					ast.Inspect(fd.Recv, func(n ast.Node) bool {
						if id, ok := n.(*ast.Ident); ok {
							receivers[id] = true
						}
						return true
					})
				}
			}
		}
		for id, obj := range p.info.Uses {
			if receivers[id] {
				continue
			}
			if fn, ok := obj.(*types.Func); ok {
				if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
					dispatched[fn] = true
				}
				obj = fn.Origin()
			}
			used[obj] = true
		}
		if p.dir == "." {
			for _, name := range p.types.Scope().Names() {
				if obj, ok := p.types.Scope().Lookup(name).(*types.TypeName); ok && obj.Exported() {
					public = append(public, obj.Type())
				}
			}
		}
	}

	f, err := parser.ParseFile(scanFset, "runtimeinterfaces.go", runtimeInterfaces, parser.SkipObjectResolution)
	if err != nil {
		return nil, err
	}
	rt, err := (&types.Config{Importer: imp}).Check("runtimeinterfaces", scanFset, []*ast.File{f}, nil)
	if err != nil {
		return nil, err
	}
	for _, name := range rt.Scope().Names() {
		iface := rt.Scope().Lookup(name).Type().Underlying().(*types.Interface)
		for i := 0; i < iface.NumMethods(); i++ {
			dispatched[iface.Method(i)] = true
		}
	}

	// Public types: the root package's exported types and, transitively,
	// every module type one of them embeds.
	isPublic := map[*types.Named]bool{}
	for len(public) > 0 {
		t := public[len(public)-1]
		public = public[:len(public)-1]
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		named, ok := types.Unalias(t).(*types.Named)
		if !ok || isPublic[named] {
			continue
		}
		isPublic[named] = true
		if st, ok := named.Underlying().(*types.Struct); ok {
			for i := 0; i < st.NumFields(); i++ {
				if st.Field(i).Embedded() {
					public = append(public, st.Field(i).Type())
				}
			}
		}
	}

	var uncalled []string
	for _, p := range pkgs {
		if p.dir != "internal" && !strings.HasPrefix(p.dir, "internal/") {
			continue
		}
		scope := p.types.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if obj.Exported() && !used[obj] {
				uncalled = append(uncalled, p.dir+"."+name)
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named := tn.Type().(*types.Named)
			for i := 0; i < named.NumMethods(); i++ {
				m := named.Method(i)
				if m.Exported() && !used[m] && !isPublic[named] && !dispatchedTo(named, m.Name(), dispatched) {
					uncalled = append(uncalled, p.dir+"."+name+"."+m.Name())
				}
			}
		}
	}
	sort.Strings(uncalled)
	return uncalled, nil
}

// dispatchedTo reports whether named or a pointer to it implements the
// interface of one of the dispatched methods called name.
func dispatchedTo(named *types.Named, name string, dispatched map[*types.Func]bool) bool {
	for fn := range dispatched {
		if fn.Name() != name {
			continue
		}
		iface, ok := fn.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface)
		if ok && (types.Implements(named, iface) || types.Implements(types.NewPointer(named), iface)) {
			return true
		}
	}
	return false
}

// modulePkg is one package of the scanned module: its directory
// relative to the module root, its non-test files and their types.
type modulePkg struct {
	dir   string
	files []*ast.File
	types *types.Package
	info  *types.Info
}

// scanFset and stdlib are shared by every scan, so that a test binary
// type-checks the standard library from source once.
var (
	scanFset = token.NewFileSet()
	stdlib   = importer.ForCompiler(scanFset, "source", nil)
)

// moduleImporter holds the module's packages by import path. It
// type-checks one on its first import and imports every other package
// through stdlib.
type moduleImporter map[string]*modulePkg

func (m moduleImporter) Import(ipath string) (*types.Package, error) {
	p, ok := m[ipath]
	if !ok {
		return stdlib.Import(ipath)
	}
	if p.types == nil {
		p.info = &types.Info{Uses: map[*ast.Ident]types.Object{}}
		pkg, err := (&types.Config{Importer: m}).Check(ipath, scanFset, p.files, p.info)
		if err != nil {
			return nil, err
		}
		p.types = pkg
	}
	return p.types, nil
}

// loadModule parses every non-test .go file of the module rooted at
// root that the default build context selects (skipping testdata,
// hidden and _-prefixed directories) and type-checks each package,
// standard-library imports from source. It returns the packages sorted
// by directory and the importer that loaded them.
func loadModule(root string) ([]*modulePkg, moduleImporter, error) {
	module, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, nil, err
	}
	imp := moduleImporter{}
	var pkgs []*modulePkg
	err = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if p != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		if ok, err := build.Default.MatchFile(filepath.Dir(p), name); err != nil || !ok {
			return err
		}
		f, err := parser.ParseFile(scanFset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, filepath.Dir(p))
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(rel)
		ipath := path.Join(module, dir)
		mp, ok := imp[ipath]
		if !ok {
			mp = &modulePkg{dir: dir}
			imp[ipath] = mp
			pkgs = append(pkgs, mp)
		}
		mp.files = append(mp.files, f)
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	for _, p := range pkgs {
		if _, err := imp.Import(path.Join(module, p.dir)); err != nil {
			return nil, nil, err
		}
	}
	return pkgs, imp, nil
}

// modulePath returns the module line of the go.mod file at p.
func modulePath(p string) (string, error) {
	f, err := os.Open(p)
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
	if err := sc.Err(); err != nil {
		return "", err
	}
	return "", fmt.Errorf("%s: no module line", p)
}
