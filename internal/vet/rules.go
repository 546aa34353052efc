package vet

import (
	"go/ast"
	"go/types"
	"strings"
)

// vetPackage runs the per-package rules. The secret-flow engine runs
// separately over the whole module (see taint.go) because its findings
// depend on cross-package summaries.
func (a *analyzer) vetPackage(p *vetPkg) {
	inInternal := p.inInternal()
	for _, f := range p.files {
		if inInternal {
			a.ruleNoRand(f)
			a.ruleNoWallTime(p, f)
		}
		a.ruleIRMutate(p, f)
	}
	for _, f := range p.testFiles {
		a.ruleShortRace(f)
	}
}

// ruleNoRand flags math/rand imports in internal packages.
func (a *analyzer) ruleNoRand(f *ast.File) {
	for _, imp := range f.Imports {
		path := strings.Trim(imp.Path.Value, `"`)
		if path == "math/rand" || path == "math/rand/v2" {
			a.report(imp.Pos(), RuleNoRand,
				"import of %s in internal/; use internal/rng so results are reproducible from a seed", path)
		}
	}
}

// ruleNoWallTime flags wall-clock reads in internal packages, resolved
// through the typechecker so aliased imports are still caught.
func (a *analyzer) ruleNoWallTime(p *vetPkg, f *ast.File) {
	ast.Inspect(f, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		fn, ok := p.info.Uses[id].(*types.Func)
		if !ok {
			return true
		}
		if full := fn.FullName(); full == "time.Now" || full == "time.Since" {
			a.report(id.Pos(), RuleNoWallTime,
				"%s in internal/; wall-clock reads belong in the cmd/ layer", full)
		}
		return true
	})
}

// ruleIRMutate flags writes to ir.Program fields (or elements of slice
// fields) from outside internal/ir.
func (a *analyzer) ruleIRMutate(p *vetPkg, f *ast.File) {
	irPath := a.modPath + "/internal/ir"
	if p.path == irPath {
		return
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range st.Lhs {
				if name, ok := a.programField(p, irPath, lhs); ok {
					a.report(lhs.Pos(), RuleIRMutate,
						"write to ir.Program field %s outside internal/ir; Programs are immutable after Compile", name)
				}
			}
		case *ast.IncDecStmt:
			if name, ok := a.programField(p, irPath, st.X); ok {
				a.report(st.X.Pos(), RuleIRMutate,
					"write to ir.Program field %s outside internal/ir; Programs are immutable after Compile", name)
			}
		}
		return true
	})
}

// programField reports whether an assignable expression resolves to a
// field of ir.Program, looking through index expressions so writes like
// prog.Ops[i] = x are caught too.
func (a *analyzer) programField(p *vetPkg, irPath string, e ast.Expr) (string, bool) {
	switch e := e.(type) {
	case *ast.SelectorExpr:
		sel := p.info.Selections[e]
		if sel == nil || sel.Kind() != types.FieldVal {
			return "", false
		}
		recv := sel.Recv()
		if ptr, ok := recv.(*types.Pointer); ok {
			recv = ptr.Elem()
		}
		named, ok := recv.(*types.Named)
		if !ok || named.Obj().Pkg() == nil {
			return "", false
		}
		if named.Obj().Pkg().Path() == irPath && named.Obj().Name() == "Program" {
			return e.Sel.Name, true
		}
	case *ast.IndexExpr:
		return a.programField(p, irPath, e.X)
	case *ast.ParenExpr:
		return a.programField(p, irPath, e.X)
	case *ast.StarExpr:
		return a.programField(p, irPath, e.X)
	}
	return "", false
}

// ruleShortRace flags test functions that both spawn goroutines and
// gate on testing.Short: the CI race leg runs `go test -race -short`,
// so such a test exempts itself from the race detector.
func (a *analyzer) ruleShortRace(f *ast.File) {
	for _, decl := range f.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Body == nil || !strings.HasPrefix(fd.Name.Name, "Test") {
			continue
		}
		spawns, short := false, false
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.GoStmt:
				spawns = true
			case *ast.SelectorExpr:
				if id, ok := x.X.(*ast.Ident); ok && id.Name == "testing" && x.Sel.Name == "Short" {
					short = true
				}
			}
			return true
		})
		if spawns && short {
			a.report(fd.Pos(), RuleShortRace,
				"%s spawns goroutines but gates on testing.Short; the -race -short CI leg would skip it", fd.Name.Name)
		}
	}
}

// callFullName resolves a call's target to its types.Func full name
// ("" when the target is not a resolved function).
func callFullName(p *vetPkg, call *ast.CallExpr) string {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	fn, ok := p.info.Uses[sel.Sel].(*types.Func)
	if !ok {
		return ""
	}
	return fn.FullName()
}
