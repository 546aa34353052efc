package vet

import (
	"go/ast"
	"go/types"
)

// ruleDeadExport flags the exported package-level funcs, and the
// exported methods of exported types, of internal/ packages that nothing
// outside their package refers to. A package is checked only when some
// other loaded package imports it, so a library nobody uses yet (or a
// fixture) is left alone. Every reference is decided by the typed
// reference index (see refIndex), so a func kept alive only by its own
// tests is still dead, and a method is not kept alive by an unrelated
// selector of the same name. A method that implements an interface seen
// anywhere in the module counts as used. Sanitizers are exempt: they are
// the sanctioned key formatters and exist to be available.
func (a *analyzer) ruleDeadExport() {
	imported := map[string]bool{}
	for _, p := range a.loaded() {
		for _, imp := range p.pkg.Imports() {
			if imp.Path() != p.path {
				imported[imp.Path()] = true
			}
		}
	}
	for _, p := range a.loaded() {
		if !p.inInternal() || !imported[p.path] {
			continue
		}
		for _, f := range p.files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || !fd.Name.IsExported() || isSanitizer(p, fd) {
					continue
				}
				fn := p.info.Defs[fd.Name].(*types.Func)
				name := p.pkg.Name() + "." + fd.Name.Name
				if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
					named := receiverNamed(recv.Type())
					if named == nil || !named.Obj().Exported() || a.refs.implements(named, fn) {
						continue
					}
					name = p.pkg.Name() + "." + named.Obj().Name() + "." + fd.Name.Name
				}
				if a.refs.outside[fn] {
					continue
				}
				fix := "delete it"
				if a.refs.inside[fn] {
					fix = "unexport it"
				}
				a.report(fd.Name.Pos(), RuleDeadExport,
					"%s is exported but no other package refers to it; %s", name, fix)
			}
		}
	}
}

// receiverNamed is the named type behind a method receiver (T or *T).
func receiverNamed(t types.Type) *types.Named {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// refIndex is deadexport's evidence, gathered from every typechecked file
// of the module: the production packages, each package's in-package and
// external tests, examples/, the root's test-only package and nested
// modules such as perfbench/. A func or method is referenced when an
// identifier resolves to it in types.Info.Uses, which records the method
// a selector picks as well as every qualified name; generic code is
// mapped back to its declaration with Origin.
type refIndex struct {
	outside map[*types.Func]bool // referenced from outside its package's directory
	inside  map[*types.Func]bool // referenced by its own package's production code
	// ifaces holds every interface type seen, under each of its method
	// names.
	ifaces map[string][]*types.Interface
	seen   map[types.Type]bool
}

func newRefIndex() *refIndex {
	x := &refIndex{
		outside: map[*types.Func]bool{},
		inside:  map[*types.Func]bool{},
		ifaces:  map[string][]*types.Interface{},
		seen:    map[types.Type]bool{},
	}
	// error and fmt.Stringer (interface{ String() string }) count even
	// unmentioned: fmt calls their methods by reflection.
	x.collect(types.Universe.Lookup("error").Type())
	str := types.NewSignatureType(nil, nil, nil, nil,
		types.NewTuple(types.NewVar(0, nil, "", types.Typ[types.String])), false)
	x.collect(types.NewInterfaceType([]*types.Func{types.NewFunc(0, nil, "String", str)}, nil).Complete())
	return x
}

// add indexes the references of one typechecked set of files, all in
// the directory of import path home. prod marks a production package,
// whose references to itself are its own uses.
func (x *refIndex) add(home string, info *types.Info, prod bool) {
	for _, obj := range info.Uses {
		fn, ok := obj.(*types.Func)
		if !ok || fn.Pkg() == nil {
			continue
		}
		fn = fn.Origin()
		if fn.Pkg().Path() != home {
			x.outside[fn] = true
		} else if prod {
			x.inside[fn] = true
		}
	}
	for _, tv := range info.Types {
		x.collect(tv.Type)
	}
}

// collect records the interface types inside t, looking through
// composite types and the parameters of signatures, so that the
// instantiated interface a generic call converts its argument to is seen.
func (x *refIndex) collect(t types.Type) {
	if t == nil || x.seen[t] {
		return
	}
	x.seen[t] = true
	switch t := t.(type) {
	case *types.Named:
		if it, ok := t.Underlying().(*types.Interface); ok {
			x.addIface(it)
		}
		for i := 0; i < t.TypeArgs().Len(); i++ {
			x.collect(t.TypeArgs().At(i))
		}
	case *types.Interface:
		x.addIface(t)
	case *types.Signature:
		x.collect(t.Params())
		x.collect(t.Results())
	case *types.Tuple:
		for i := 0; i < t.Len(); i++ {
			x.collect(t.At(i).Type())
		}
	case *types.Pointer:
		x.collect(t.Elem())
	case *types.Slice:
		x.collect(t.Elem())
	case *types.Array:
		x.collect(t.Elem())
	case *types.Map:
		x.collect(t.Key())
		x.collect(t.Elem())
	case *types.Chan:
		x.collect(t.Elem())
	}
}

func (x *refIndex) addIface(it *types.Interface) {
	if !it.IsMethodSet() {
		return
	}
	for i := 0; i < it.NumMethods(); i++ {
		name := it.Method(i).Name()
		x.ifaces[name] = append(x.ifaces[name], it)
	}
}

// implements reports whether method fn of named type t implements a
// method of some interface type the index has seen.
func (x *refIndex) implements(t *types.Named, fn *types.Func) bool {
	if t.TypeParams().Len() > 0 {
		return false
	}
	ptr := types.NewPointer(t)
	for _, it := range x.ifaces[fn.Name()] {
		if types.Implements(ptr, it) {
			return true
		}
	}
	return false
}
