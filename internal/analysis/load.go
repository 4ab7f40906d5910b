package analysis

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// A Package is one parsed and type-checked package of the program under
// analysis (non-test files only: the invariants the analyzers enforce are
// about shipped placement code, and test binaries never run in the serving
// path).
type Package struct {
	Path  string // import path
	Dir   string // absolute directory
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// A Program is the whole loaded module: every package, in dependency
// order, sharing one FileSet and one type universe.
type Program struct {
	Fset *token.FileSet
	Pkgs []*Package
}

// A Mapping routes an import-path prefix to a source directory, the way a
// go.mod module line does. The loader resolves any import under Prefix to
// the matching subdirectory of Dir and type-checks it from source; all
// other imports go to the standard library's source importer.
type Mapping struct {
	Prefix string
	Dir    string
}

// loader parses and type-checks packages from source. It doubles as the
// types.Importer used during checking, so module-internal imports recurse
// through it and everything else falls through to GOROOT source.
type loader struct {
	fset     *token.FileSet
	mappings []Mapping
	std      types.Importer
	pkgs     map[string]*Package
	loading  map[string]bool
	order    []*Package
}

// Load parses and type-checks the package rooted at every directory of the
// first mapping (recursively, skipping testdata and hidden directories),
// resolving imports through the given mappings. It returns the packages in
// dependency order.
func Load(mappings ...Mapping) (*Program, error) {
	if len(mappings) == 0 {
		return nil, fmt.Errorf("analysis.Load: no mappings")
	}
	fset := token.NewFileSet()
	ld := &loader{
		fset:     fset,
		mappings: mappings,
		std:      importer.ForCompiler(fset, "source", nil),
		pkgs:     map[string]*Package{},
		loading:  map[string]bool{},
	}
	root := mappings[0]
	var dirs []string
	err := filepath.WalkDir(root.Dir, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root.Dir && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		if hasGoFiles(path) {
			dirs = append(dirs, path)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(dirs)
	for _, dir := range dirs {
		rel, err := filepath.Rel(root.Dir, dir)
		if err != nil {
			return nil, err
		}
		path := root.Prefix
		if rel != "." {
			path = root.Prefix + "/" + filepath.ToSlash(rel)
		}
		if _, err := ld.load(path); err != nil {
			return nil, err
		}
	}
	return &Program{Fset: fset, Pkgs: ld.order}, nil
}

func hasGoFiles(dir string) bool {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range ents {
		name := e.Name()
		if !e.IsDir() && strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") {
			return true
		}
	}
	return false
}

// dirOf resolves an import path through the mappings; ok is false when the
// path belongs to no mapping (i.e. it is a standard-library import).
func (ld *loader) dirOf(path string) (string, bool) {
	for _, m := range ld.mappings {
		if path == m.Prefix {
			return m.Dir, true
		}
		if strings.HasPrefix(path, m.Prefix+"/") {
			return filepath.Join(m.Dir, filepath.FromSlash(strings.TrimPrefix(path, m.Prefix+"/"))), true
		}
	}
	return "", false
}

// Import implements types.Importer over the mappings.
func (ld *loader) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if _, ok := ld.dirOf(path); ok {
		pkg, err := ld.load(path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return ld.std.Import(path)
}

// load parses and type-checks one mapped package (memoised).
func (ld *loader) load(path string) (*Package, error) {
	if pkg, ok := ld.pkgs[path]; ok {
		return pkg, nil
	}
	if ld.loading[path] {
		return nil, fmt.Errorf("import cycle through %s", path)
	}
	ld.loading[path] = true
	defer delete(ld.loading, path)

	dir, ok := ld.dirOf(path)
	if !ok {
		return nil, fmt.Errorf("no mapping for %s", path)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(ld.fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no Go files in %s", dir)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{Importer: ld}
	tpkg, err := conf.Check(path, ld.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %w", path, err)
	}
	pkg := &Package{Path: path, Dir: dir, Files: files, Types: tpkg, Info: info}
	ld.pkgs[path] = pkg
	ld.order = append(ld.order, pkg)
	return pkg, nil
}

// ModuleRoot walks upward from dir to the nearest directory containing a
// go.mod and returns that directory plus the declared module path.
func ModuleRoot(dir string) (root, modPath string, err error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for d := abs; ; d = filepath.Dir(d) {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module "); ok {
					return d, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("%s/go.mod has no module line", d)
		}
		if filepath.Dir(d) == d {
			return "", "", fmt.Errorf("no go.mod found above %s", abs)
		}
	}
}
