package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Unreached reports every function of the module that no program reaches:
// code that only tests call, or nothing at all. The roots are the main
// function of every main package the loader sees (cmd/*, examples/* and
// benchmark/), every init function, and every function or literal a
// package-level variable's initializer references (an analyzer's Run field,
// a flag table). Edges are the call graph's. An interface call has none, so
// a method counts as reached when its name is a method of some interface
// type declared in the module or in any package it imports, the standard
// library included; Unwrap, Is and As count too, because errors calls them
// through unnamed interfaces.
//
// A finding is fixed by deleting the function, by moving it into a
// _test.go file when only its own package's tests use it, or, when other
// packages' tests need it, by //dtgp:allow(unreached) with a comment that
// names those tests.
var Unreached = &Analyzer{
	Name: "unreached",
	Doc:  "report module functions that no main package reaches",
	Run:  runUnreached,
}

func runUnreached(pass *Pass) error {
	reached := pass.Facts.reached(pass.Prog)
	for _, fi := range pass.Facts.All() {
		if fi.Pkg != pass.Pkg || reached[fi.Obj] {
			continue
		}
		name := fi.Obj.Name()
		if recv := recvTypeName(fi.Obj); recv != "" {
			name = recv + "." + name
		}
		pass.Reportf(fi.Decl.Name.Pos(),
			"%s is reached from no main package (delete it, move it into a _test.go file if only its own package's tests use it, or //dtgp:allow(unreached) naming the tests that need it)",
			name)
	}
	return nil
}

// reached returns the module functions some root reaches, computing the
// set on first use.
func (f *Facts) reached(prog *Program) map[*types.Func]bool {
	if f.reach == nil {
		f.reach = computeReached(prog, f)
	}
	return f.reach
}

func computeReached(prog *Program, facts *Facts) map[*types.Func]bool {
	cg := facts.Interproc(prog).CG
	ifaceNames := interfaceMethodNames(prog)
	seen := make([]bool, len(cg.Units))
	var queue []*Unit
	push := func(u *Unit) {
		if u != nil && !seen[u.Index] {
			seen[u.Index] = true
			queue = append(queue, u)
		}
	}
	for _, fi := range facts.All() {
		sig := fi.Obj.Type().(*types.Signature)
		switch {
		case sig.Recv() == nil && fi.Obj.Name() == "init",
			sig.Recv() == nil && fi.Obj.Name() == "main" && fi.Pkg.Types.Name() == "main",
			sig.Recv() != nil && ifaceNames[fi.Obj.Name()]:
			push(cg.ByDecl[fi.Obj])
		}
	}
	// Package-level variable initializers run before main: every function
	// they name, in a literal's body or not, is a root.
	for _, pkg := range prog.Pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				gd, ok := decl.(*ast.GenDecl)
				if !ok || gd.Tok != token.VAR {
					continue
				}
				ast.Inspect(gd, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						if fn, ok := pkg.Info.Uses[id].(*types.Func); ok {
							push(cg.ByDecl[fn])
						}
					}
					return true
				})
			}
		}
	}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, c := range u.Callees {
			push(c)
		}
	}
	reach := map[*types.Func]bool{}
	for _, u := range cg.Units {
		if seen[u.Index] && u.Lit == nil {
			reach[u.Fn.Obj] = true
		}
	}
	return reach
}

// interfaceMethodNames collects the method names of every interface type
// the module can call through: each interface type written in the
// module's own source, and each named interface declared in a package the
// module imports, directly or not. error's Error and the Unwrap, Is and As
// methods that errors finds through unnamed interfaces are always in.
func interfaceMethodNames(prog *Program) map[string]bool {
	names := map[string]bool{"Error": true, "Unwrap": true, "Is": true, "As": true}
	addIface := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok {
			for i := 0; i < it.NumMethods(); i++ {
				names[it.Method(i).Name()] = true
			}
		}
	}
	visited := map[*types.Package]bool{}
	var visit func(p *types.Package)
	visit = func(p *types.Package) {
		if visited[p] {
			return
		}
		visited[p] = true
		scope := p.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				addIface(tn.Type())
			}
		}
		for _, imp := range p.Imports() {
			visit(imp)
		}
	}
	for _, pkg := range prog.Pkgs {
		visit(pkg.Types)
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				if it, ok := n.(*ast.InterfaceType); ok {
					if tv, ok := pkg.Info.Types[it]; ok {
						addIface(tv.Type)
					}
				}
				return true
			})
		}
	}
	return names
}
