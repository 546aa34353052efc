package vet

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	pathpkg "path"
	"path/filepath"
	"strconv"
	"strings"
)

// ruleDeadExport flags exported package-level funcs of internal/
// packages that nothing outside their package refers to. A package is
// checked only when some other loaded package imports it, so a library
// nobody uses yet (or a fixture) is left alone. References are collected
// syntactically from every Go file of the module tree outside the
// package's own directory — other packages' production and test files,
// examples/, and nested modules such as perfbench/ that ./... never
// loads — so a func kept alive only by its own tests is still dead.
// Sanitizers are exempt: they are the sanctioned key formatters and
// exist to be available.
func (a *analyzer) ruleDeadExport() {
	imported := map[string]bool{}
	for _, p := range a.loaded() {
		for _, imp := range p.pkg.Imports() {
			if imp.Path() != p.path {
				imported[imp.Path()] = true
			}
		}
	}
	refs := a.externalRefs()
	for _, p := range a.loaded() {
		if !p.inInternal() || !imported[p.path] {
			continue
		}
		usedInside := map[string]bool{}
		for _, obj := range p.info.Uses {
			if obj.Pkg() == p.pkg && obj.Parent() == p.pkg.Scope() {
				usedInside[obj.Name()] = true
			}
		}
		for _, f := range p.files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Recv != nil || !fd.Name.IsExported() || isSanitizer(p, fd) {
					continue
				}
				if refs[p.path+"."+fd.Name.Name] {
					continue
				}
				fix := "delete it"
				if usedInside[fd.Name.Name] {
					fix = "unexport it"
				}
				a.report(fd.Name.Pos(), RuleDeadExport,
					"%s.%s is exported but no other package refers to it; %s", p.pkg.Name(), fd.Name.Name, fix)
			}
		}
	}
}

// externalRefs returns the set of "importpath.Name" selectors used by
// every Go file under the module root, excluding references a package's
// own directory makes to itself. Hidden and testdata directories are
// skipped. Files are parsed without type information, so a selector
// counts when its left side names an import of the file; dot imports
// are not resolved.
func (a *analyzer) externalRefs() map[string]bool {
	refs := map[string]bool{}
	fset := token.NewFileSet()
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
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return nil
		}
		rel, _ := filepath.Rel(a.modRoot, filepath.Dir(path))
		self := pathpkg.Join(a.modPath, filepath.ToSlash(rel))
		names := map[string]string{}
		for _, imp := range f.Imports {
			ip, _ := strconv.Unquote(imp.Path.Value)
			if ip == self {
				continue
			}
			names[a.importName(imp, ip)] = ip
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if id, ok := sel.X.(*ast.Ident); ok && names[id.Name] != "" {
					refs[names[id.Name]+"."+sel.Sel.Name] = true
				}
			}
			return true
		})
		return nil
	})
	return refs
}

// importName is the identifier an import binds in its file: the
// explicit alias, else the loaded package's declared name, else the
// last path element.
func (a *analyzer) importName(imp *ast.ImportSpec, path string) string {
	if imp.Name != nil {
		return imp.Name.Name
	}
	if p, ok := a.pkgs[path]; ok && p.pkg != nil {
		return p.pkg.Name()
	}
	return path[strings.LastIndex(path, "/")+1:]
}
