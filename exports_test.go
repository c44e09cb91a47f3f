package zskyline_test

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// exportAllowlist names the package-level exported identifiers under
// internal/ that no non-test file uses but that stay on purpose, keyed
// as "internal/<pkg>.<Name>", each with its reason.
var exportAllowlist = map[string]string{
	"internal/dominance.BruteForce":    "the all-pairs oracle the dominance, plan, parallel, maintain, window and zbtree tests check every provider against",
	"internal/dominance.Register":      "the hook for custom provider kinds; the dominance and parallel tests register a test kind through it",
	"internal/point.SortLexicographic": "the canonical row order the equivalence tests of a dozen packages compare skylines in",
	"internal/zorder.Equal":            "Z-address equality the zorder, zbtree and plan tests compare encoded columns with",
}

// TestInternalExportsHaveCallers fails when an exported package-level
// func, type, var or const under internal/ has no caller in a non-test
// file of the module, unless exportAllowlist names it. It also fails on
// an allowlist entry that is no longer declared or that gained a caller.
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
// testdata that holds one live exported function (called only from
// cmd/), one dead one (called only from a _test.go file), one
// allowlisted one and an exported method, each in a different
// directory level, so a walk that misses a directory or counts a test
// file shows up as a wrong answer.
func TestUncalledExportsFixture(t *testing.T) {
	uncalled, err := uncalledExports(filepath.Join("testdata", "exports"))
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"internal/lib.Allowed", "internal/lib/deep.Dead"}; !reflect.DeepEqual(uncalled, want) {
		t.Fatalf("uncalled = %q, want %q", uncalled, want)
	}
	dead, stale := splitAllowed(uncalled, map[string]string{
		"internal/lib.Allowed": "fixture entry",
		"internal/lib.Gone":    "fixture entry that is not declared",
	})
	if want := []string{"internal/lib/deep.Dead"}; !reflect.DeepEqual(dead, want) {
		t.Fatalf("dead = %q, want %q", dead, want)
	}
	if want := []string{"internal/lib.Gone"}; !reflect.DeepEqual(stale, want) {
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

// uncalledExports parses every non-test .go file of the module rooted at
// root (skipping testdata, hidden and _-prefixed directories) and
// returns, sorted and keyed "<dir>.<Name>" relative to root, each
// package-level exported func, type, var or const declared under
// internal/ that no non-test file names. A use is a selector through the
// file's import of the declaring package, or a bare identifier inside
// the declaring package other than a declaration's own name or a
// method's receiver type. Methods and struct fields are not checked:
// interface satisfaction and reflection reach them where no AST shows it.
func uncalledExports(root string) ([]string, error) {
	module, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	type file struct {
		dir string // slash-separated, relative to root
		f   *ast.File
	}
	var files []file
	pkgName := map[string]string{} // import path -> package name
	fset := token.NewFileSet()
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
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, filepath.Dir(p))
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(rel)
		files = append(files, file{dir, f})
		pkgName[path.Join(module, dir)] = f.Name.Name
		return nil
	})
	if err != nil {
		return nil, err
	}

	declared := map[string]bool{}
	used := map[string]bool{}
	for _, fl := range files {
		own := fl.dir + "."
		if fl.dir == "internal" || strings.HasPrefix(fl.dir, "internal/") {
			for _, name := range exportedDecls(fl.f) {
				declared[own+name] = true
			}
		}
		imports := map[string]string{} // local name -> dir relative to root
		for _, spec := range fl.f.Imports {
			ipath := strings.Trim(spec.Path.Value, `"`)
			name, ok := pkgName[ipath]
			if !ok {
				continue // outside the module
			}
			if spec.Name != nil {
				name = spec.Name.Name
			}
			imports[name] = strings.TrimPrefix(strings.TrimPrefix(ipath, module), "/")
		}
		skip := declNames(fl.f)
		var visit func(n ast.Node) bool
		visit = func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.Ident); ok {
					if dir, ok := imports[x.Name]; ok {
						used[dir+"."+n.Sel.Name] = true
						return false
					}
				}
				ast.Inspect(n.X, visit) // n.Sel is a field or method
				return false
			case *ast.Ident:
				if !skip[n] {
					used[own+n.Name] = true
				}
			}
			return true
		}
		ast.Inspect(fl.f, visit)
	}

	var uncalled []string
	for name := range declared {
		if !used[name] {
			uncalled = append(uncalled, name)
		}
	}
	sort.Strings(uncalled)
	return uncalled, nil
}

// exportedDecls returns the exported package-level names f declares,
// methods excluded.
func exportedDecls(f *ast.File) []string {
	var names []string
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil && d.Name.IsExported() {
				names = append(names, d.Name.Name)
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					if s.Name.IsExported() {
						names = append(names, s.Name.Name)
					}
				case *ast.ValueSpec:
					for _, id := range s.Names {
						if id.IsExported() {
							names = append(names, id.Name)
						}
					}
				}
			}
		}
	}
	return names
}

// declNames returns the identifiers in f that are not uses of a
// package-level name: every declared name (funcs, methods, types,
// values, fields, parameters) and every identifier in a method's
// receiver, so that a type its own methods mention is not live for it.
func declNames(f *ast.File) map[*ast.Ident]bool {
	skip := map[*ast.Ident]bool{}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			skip[n.Name] = true
			if n.Recv != nil {
				ast.Inspect(n.Recv, func(m ast.Node) bool {
					if id, ok := m.(*ast.Ident); ok {
						skip[id] = true
					}
					return true
				})
			}
		case *ast.TypeSpec:
			skip[n.Name] = true
		case *ast.ValueSpec:
			for _, id := range n.Names {
				skip[id] = true
			}
		case *ast.Field:
			for _, id := range n.Names {
				skip[id] = true
			}
		}
		return true
	})
	return skip
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
