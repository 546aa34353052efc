package vet

import (
	"fmt"
	"go/ast"
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

// analyzer parses and typechecks the module's packages on demand and
// accumulates findings. Module packages are resolved from the source
// tree; standard-library imports are delegated to the go/importer
// source importer. The rules run over the production files of
// ./internal/... and ./cmd/...; everything else the module holds (test
// files, examples/, the root's test-only package, nested modules such
// as perfbench/) is typechecked only to feed deadexport's reference
// index.
type analyzer struct {
	fset     *token.FileSet
	modRoot  string
	modPath  string
	stdlib   types.Importer
	pkgs     map[string]*vetPkg
	order    []string // load order of module package paths
	refs     *refIndex
	findings []Finding

	// Secret-flow engine state; see taint.go.
	funcs   map[*types.Func]*funcNode
	fnOrder []*funcNode
}

type vetPkg struct {
	path      string
	files     []*ast.File
	testFiles []*ast.File
	pkg       *types.Package
	info      *types.Info
	err       error
}

// inInternal reports whether the package lives under internal/ — the
// scope of the norand, nowalltime and nosecret rules.
func (p *vetPkg) inInternal() bool {
	return strings.Contains(p.path+"/", "/internal/")
}

func newAnalyzer(modRoot, modPath string) *analyzer {
	a := &analyzer{
		fset:    token.NewFileSet(),
		modRoot: modRoot,
		modPath: modPath,
		pkgs:    map[string]*vetPkg{},
		refs:    newRefIndex(),
		funcs:   map[*types.Func]*funcNode{},
	}
	a.stdlib = importer.ForCompiler(a.fset, "source", nil)
	return a
}

// loadAll loads every package under ./internal/... and ./cmd/... for
// the rules, then typechecks the rest of the module's Go files for the
// reference index. It returns the first load error (nil when everything
// typechecks).
func (a *analyzer) loadAll() error {
	dirs := a.moduleDirs()
	var firstErr error
	note := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	for _, top := range []string{"internal/", "cmd/"} {
		for _, dir := range dirs {
			if strings.HasPrefix(dir+"/", top) {
				_, err := a.load(a.importPath(dir))
				note(err)
			}
		}
	}
	for _, dir := range dirs {
		note(a.loadRefs(dir))
	}
	return firstErr
}

// loaded returns the successfully loaded module packages in load order.
func (a *analyzer) loaded() []*vetPkg {
	var out []*vetPkg
	for _, path := range a.order {
		if p := a.pkgs[path]; p.err == nil {
			out = append(out, p)
		}
	}
	return out
}

// moduleDirs lists, sorted, the slash-separated directories below the
// module root ("." for the root itself) that hold Go files, skipping
// testdata and hidden trees. Nested modules are included.
func (a *analyzer) moduleDirs() []string {
	seen := map[string]bool{}
	var dirs []string
	filepath.WalkDir(a.modRoot, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			if path != a.modRoot && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return fs.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(d.Name(), ".go") {
			return nil
		}
		rel, err := filepath.Rel(a.modRoot, filepath.Dir(path))
		if dir := filepath.ToSlash(rel); err == nil && !seen[dir] {
			seen[dir] = true
			dirs = append(dirs, dir)
		}
		return nil
	})
	sort.Strings(dirs)
	return dirs
}

// importPath is the import path of a module directory.
func (a *analyzer) importPath(dir string) string {
	if dir == "." {
		return a.modPath
	}
	return a.modPath + "/" + dir
}

// Import resolves an import path for the typechecker: module-local
// packages load from the source tree, everything else from the
// standard library.
func (a *analyzer) Import(path string) (*types.Package, error) {
	if path == a.modPath || strings.HasPrefix(path, a.modPath+"/") {
		p, err := a.load(path)
		if err != nil {
			return nil, err
		}
		return p.pkg, nil
	}
	return a.stdlib.Import(path)
}

// load parses and typechecks one module package, memoized. Comments are
// kept so sanitizer directives (//vet:sanitizer) are visible.
func (a *analyzer) load(path string) (*vetPkg, error) {
	if p, ok := a.pkgs[path]; ok {
		return p, p.err
	}
	p := &vetPkg{path: path}
	a.pkgs[path] = p
	a.order = append(a.order, path)
	p.files, p.testFiles, p.err = a.parseDir(strings.TrimPrefix(path, a.modPath+"/"))
	if p.err != nil {
		return p, p.err
	}
	if len(p.files) == 0 {
		p.err = fmt.Errorf("orapvet: %s: no Go files", path)
		return p, p.err
	}
	p.info = &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{Importer: a}
	if p.pkg, p.err = conf.Check(path, a.fset, p.files, p.info); p.err != nil {
		return p, p.err
	}
	a.refs.add(path, p.info, true)
	return p, nil
}

// parseDir parses the Go files of one module directory, splitting
// production from test files.
func (a *analyzer) parseDir(dir string) (files, testFiles []*ast.File, err error) {
	abs := filepath.Join(a.modRoot, filepath.FromSlash(dir))
	entries, err := os.ReadDir(abs)
	if err != nil {
		return nil, nil, fmt.Errorf("orapvet: %s: %w", a.importPath(dir), err)
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		file, err := parser.ParseFile(a.fset, filepath.Join(abs, e.Name()), nil, parser.ParseComments)
		if err != nil {
			return nil, nil, err
		}
		if strings.HasSuffix(e.Name(), "_test.go") {
			testFiles = append(testFiles, file)
		} else {
			files = append(files, file)
		}
	}
	return files, testFiles, nil
}

// loadRefs typechecks, for the reference index only, the files of one
// module directory that the rules do not load: the in-package tests
// (checked together with the production files) and the external _test
// package of a loaded package, or every file of a directory outside
// internal/ and cmd/. Type errors do not stop the check, so every
// reference that still resolves is indexed; the first one is returned.
func (a *analyzer) loadRefs(dir string) error {
	path := a.importPath(dir)
	var files, tests []*ast.File
	p, loaded := a.pkgs[path]
	if loaded {
		if p.err != nil {
			return nil // reported by load
		}
		files, tests = p.files, p.testFiles
	} else {
		var err error
		if files, tests, err = a.parseDir(dir); err != nil {
			return err
		}
	}
	var inPkg, external []*ast.File
	for _, f := range tests {
		if len(files) > 0 && f.Name.Name == files[0].Name.Name {
			inPkg = append(inPkg, f)
		} else {
			external = append(external, f)
		}
	}
	var firstErr error
	check := func(pkgPath string, group []*ast.File) {
		info := &types.Info{
			Types: map[ast.Expr]types.TypeAndValue{},
			Uses:  map[*ast.Ident]types.Object{},
		}
		conf := types.Config{Importer: a, Error: func(err error) {
			if firstErr == nil {
				firstErr = err
			}
		}}
		conf.Check(pkgPath, a.fset, group, info) // errors reach conf.Error
		a.refs.add(path, info, false)
	}
	// A loaded package's production files are indexed already; with
	// in-package tests they are checked again, as one package.
	if len(inPkg) > 0 || (!loaded && len(files) > 0) {
		check(path, append(files[:len(files):len(files)], inPkg...))
	}
	if len(external) > 0 {
		check(path+"_test", external)
	}
	return firstErr
}

func (a *analyzer) report(pos token.Pos, rule, format string, args ...interface{}) {
	a.findings = append(a.findings, Finding{
		Pos:  a.fset.Position(pos),
		Rule: rule,
		Sev:  severityOf(rule),
		Msg:  fmt.Sprintf(format, args...),
	})
}

// FindModule walks up from dir to the enclosing go.mod and returns the
// module root directory and module path.
func FindModule(dir string) (root, modPath string, err error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(abs, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module "); ok {
					return abs, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("%s/go.mod has no module line", abs)
		}
		parent := filepath.Dir(abs)
		if parent == abs {
			return "", "", fmt.Errorf("no go.mod found above %s", dir)
		}
		abs = parent
	}
}
