package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// A Package is one type-checked unit ready for analysis: the package's
// syntax (including in-package _test.go files) plus full type
// information.
type Package struct {
	// Path is the import path the package was checked under. Analyzers
	// scope themselves by it (see instrumentedPkgs).
	Path  string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// A Loader parses and type-checks packages of one module using only
// the standard library: module-internal imports resolve recursively
// against the module tree, everything else through the toolchain's
// source importer. Importable (test-free) package versions are cached,
// so a whole-module load checks each package once.
type Loader struct {
	fset   *token.FileSet
	std    types.Importer
	module string // module path from go.mod
	root   string // module root directory

	imported map[string]*types.Package // test-free versions, by import path
	loading  map[string]bool           // cycle guard
	loadedAs map[string][]*Package     // LoadAs results, by dir + "\x00" + path
}

// NewLoader returns a loader for the module rooted at root (the
// directory holding go.mod).
func NewLoader(root string) (*Loader, error) {
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	module := ""
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			module = strings.TrimSpace(rest)
			break
		}
	}
	if module == "" {
		return nil, fmt.Errorf("no module directive in %s/go.mod", root)
	}
	fset := token.NewFileSet()
	return &Loader{
		fset:     fset,
		std:      importer.ForCompiler(fset, "source", nil),
		module:   module,
		root:     root,
		imported: make(map[string]*types.Package),
		loading:  make(map[string]bool),
		loadedAs: make(map[string][]*Package),
	}, nil
}

// Import resolves one import path: module-internal paths against the
// module tree (test-free), everything else through the source
// importer. It makes *Loader a types.Importer for its own checks.
func (l *Loader) Import(path string) (*types.Package, error) {
	if dir, ok := l.moduleDir(path); ok {
		return l.importModulePkg(path, dir)
	}
	return l.std.Import(path)
}

// moduleDir maps a module-internal import path to its directory.
func (l *Loader) moduleDir(path string) (string, bool) {
	if path == l.module {
		return l.root, true
	}
	if rest, ok := strings.CutPrefix(path, l.module+"/"); ok {
		return filepath.Join(l.root, filepath.FromSlash(rest)), true
	}
	return "", false
}

// importModulePkg type-checks the test-free version of a module
// package, memoized.
func (l *Loader) importModulePkg(path, dir string) (*types.Package, error) {
	if pkg, ok := l.imported[path]; ok {
		return pkg, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("import cycle through %s", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	files, _, err := l.parseDir(dir, false)
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no Go files in %s", dir)
	}
	conf := types.Config{Importer: l}
	pkg, err := conf.Check(path, l.fset, files, nil)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %w", path, err)
	}
	l.imported[path] = pkg
	return pkg, nil
}

// parseDir parses a directory's .go files (with comments) that build
// for the host, as go vet would check them: a file whose name or
// //go:build line excludes this GOOS/GOARCH is skipped. With tests
// true it includes _test.go files of the package itself; files of an
// external _test package are returned separately.
func (l *Loader) parseDir(dir string, tests bool) (files, xtest []*ast.File, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasPrefix(name, ".") {
			continue
		}
		if !tests && strings.HasSuffix(name, "_test.go") {
			continue
		}
		if ok, err := build.Default.MatchFile(dir, name); err != nil {
			return nil, nil, err
		} else if !ok {
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)
	var pkgName string
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, nil, err
		}
		if !strings.HasSuffix(name, "_test.go") {
			if pkgName == "" {
				pkgName = f.Name.Name
			}
			files = append(files, f)
			continue
		}
		// In-package test file or external (pkg_test) test file.
		if strings.HasSuffix(f.Name.Name, "_test") {
			xtest = append(xtest, f)
		} else {
			files = append(files, f)
		}
	}
	return files, xtest, nil
}

func newInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}
}

// FindModuleRoot walks up from dir to the directory holding go.mod.
func FindModuleRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod above %s", dir)
		}
		dir = parent
	}
}

// LoadAs parses and type-checks one directory, test files included,
// under the given import path. Fixtures use this to pose as
// instrumented packages. When the directory holds an external _test
// package it is checked too and returned second. Results are memoized
// by (dir, path): a test binary running many analyzers over the same
// fixture — or the suite gate re-walking the module — checks each
// directory once.
func (l *Loader) LoadAs(dir, path string) ([]*Package, error) {
	key := dir + "\x00" + path
	if pkgs, ok := l.loadedAs[key]; ok {
		return pkgs, nil
	}
	pkgs, err := l.loadAs(dir, path)
	if err != nil {
		return nil, err
	}
	l.loadedAs[key] = pkgs
	return pkgs, nil
}

func (l *Loader) loadAs(dir, path string) ([]*Package, error) {
	files, xtest, err := l.parseDir(dir, true)
	if err != nil {
		return nil, err
	}
	if len(files) == 0 && len(xtest) == 0 {
		return nil, fmt.Errorf("no Go files in %s", dir)
	}
	var pkgs []*Package
	if len(files) > 0 {
		info := newInfo()
		conf := types.Config{Importer: l}
		tpkg, err := conf.Check(path, l.fset, files, info)
		if err != nil {
			return nil, fmt.Errorf("type-checking %s (with tests): %w", path, err)
		}
		pkgs = append(pkgs, &Package{
			Path: path, Fset: l.fset,
			Files: files, Types: tpkg, Info: info,
		})
	}
	if len(xtest) > 0 {
		info := newInfo()
		conf := types.Config{Importer: l}
		tpkg, err := conf.Check(path+"_test", l.fset, xtest, info)
		if err != nil {
			return nil, fmt.Errorf("type-checking %s_test: %w", path, err)
		}
		pkgs = append(pkgs, &Package{
			Path: path + "_test", Fset: l.fset,
			Files: xtest, Types: tpkg, Info: info,
		})
	}
	return pkgs, nil
}

// LoadModule loads every package under the module root (the ./...
// pattern), skipping testdata, hidden directories, and directories
// without Go files. Each package is type-checked with its in-package
// test files.
func (l *Loader) LoadModule() ([]*Package, error) {
	var dirs []string
	err := filepath.WalkDir(l.root, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if p != l.root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
			return filepath.SkipDir
		}
		entries, err := os.ReadDir(p)
		if err != nil {
			return err
		}
		for _, e := range entries {
			if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
				dirs = append(dirs, p)
				break
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(dirs)
	var pkgs []*Package
	for _, dir := range dirs {
		rel, err := filepath.Rel(l.root, dir)
		if err != nil {
			return nil, err
		}
		path := l.module
		if rel != "." {
			path = l.module + "/" + filepath.ToSlash(rel)
		}
		loaded, err := l.LoadAs(dir, path)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, loaded...)
	}
	return pkgs, nil
}
