package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"strings"
)

// Unturned reports every exported field of an options struct that no
// program sets: a knob that nothing turns. An options struct is a struct
// type T that a package-level function of T's own package returns, where
// that function's name starts with Default (its builder).
//
// Program code is every non-test file the loader sees: cmd/*, examples/*,
// benchmark/, internal/* and the module root. It sets a field by assigning
// through a selector chain (opts.Guard.Enabled = … sets both Guard and
// Enabled) or by naming the field as a composite-literal key. Two kinds of
// assignment do not count:
//
//   - one in a builder's own body, unless the value reads one of the
//     builder's parameters (DefaultParams(name, cells, seed) turns Name,
//     NumCells and Seed for its callers);
//   - normalisation: an assignment inside an if statement whose condition
//     reads the same field (if opts.Gamma <= 0 { opts.Gamma = 100 }).
//
// A finding is fixed by making the field an unexported constant, or by
// //dtgp:allow(unturned) with a comment naming the tests, the program or
// the ROADMAP item that needs the field.
var Unturned = &Analyzer{
	Name: "unturned",
	Doc:  "report exported fields of Default…-built option structs that no program sets",
	Run:  runUnturned,
}

func runUnturned(pass *Pass) error {
	turned := pass.Facts.turnedFields(pass.Prog)
	structs, _ := optionStructs(pass.Pkg)
	for _, named := range structs {
		st := named.Underlying().(*types.Struct)
		for i := 0; i < st.NumFields(); i++ {
			if f := st.Field(i); f.Exported() && !turned[f] {
				pass.Reportf(f.Pos(),
					"%s.%s is set by no program (make it an unexported constant, or //dtgp:allow(unturned) naming the tests, program or ROADMAP item that needs it)",
					named.Obj().Name(), f.Name())
			}
		}
	}
	return nil
}

// optionStructs returns the options structs declared in pkg, in builder
// order, and the declarations of their builders.
func optionStructs(pkg *Package) ([]*types.Named, map[*ast.FuncDecl]bool) {
	var structs []*types.Named
	builders := map[*ast.FuncDecl]bool{}
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv != nil || !strings.HasPrefix(fd.Name.Name, "Default") {
				continue
			}
			fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			res := fn.Type().(*types.Signature).Results()
			for i := 0; i < res.Len(); i++ {
				named, ok := types.Unalias(res.At(i).Type()).(*types.Named)
				if !ok || named.Obj().Pkg() != pkg.Types {
					continue
				}
				if _, ok := named.Underlying().(*types.Struct); !ok {
					continue
				}
				builders[fd] = true
				if !slices.Contains(structs, named) {
					structs = append(structs, named)
				}
			}
		}
	}
	return structs, builders
}

// turnedFields returns the struct fields some program sets, computing the
// set on first use.
func (f *Facts) turnedFields(prog *Program) map[*types.Var]bool {
	if f.turned == nil {
		f.turned = computeTurned(prog)
	}
	return f.turned
}

func computeTurned(prog *Program) map[*types.Var]bool {
	turned := map[*types.Var]bool{}
	for _, pkg := range prog.Pkgs {
		info := pkg.Info
		_, builders := optionStructs(pkg)
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				// params holds the builder's parameters while decl is a
				// builder; nil otherwise.
				var params map[types.Object]bool
				if fd, ok := decl.(*ast.FuncDecl); ok && builders[fd] {
					params = map[types.Object]bool{}
					for _, field := range fd.Type.Params.List {
						for _, name := range field.Names {
							params[info.Defs[name]] = true
						}
					}
				}
				var stack []ast.Node
				set := func(f *types.Var, at token.Pos, value ast.Expr) {
					if params != nil && !readsAny(info, value, params) {
						return
					}
					if normalises(info, stack, f, at) {
						return
					}
					turned[f] = true
				}
				ast.Inspect(decl, func(n ast.Node) bool {
					if n == nil {
						stack = stack[:len(stack)-1]
						return false
					}
					stack = append(stack, n)
					switch n := n.(type) {
					case *ast.AssignStmt:
						for i, lhs := range n.Lhs {
							value := n.Rhs[0]
							if len(n.Rhs) == len(n.Lhs) {
								value = n.Rhs[i]
							}
							for _, f := range chainFields(info, lhs) {
								set(f, n.Pos(), value)
							}
						}
					case *ast.KeyValueExpr:
						if id, ok := n.Key.(*ast.Ident); ok {
							if f, ok := info.Uses[id].(*types.Var); ok && f.IsField() {
								set(f, n.Pos(), n.Value)
							}
						}
					}
					return true
				})
			}
		}
	}
	return turned
}

// chainFields returns the fields an assignment to e sets: every field
// selected along its selector chain.
func chainFields(info *types.Info, e ast.Expr) []*types.Var {
	var fields []*types.Var
	for sel, ok := e.(*ast.SelectorExpr); ok; sel, ok = sel.X.(*ast.SelectorExpr) {
		if s := info.Selections[sel]; s != nil && s.Kind() == types.FieldVal {
			fields = append(fields, s.Obj().(*types.Var))
		}
	}
	return fields
}

// normalises reports whether the assignment at pos sits in the body or
// else branch of an if statement whose condition reads field f.
func normalises(info *types.Info, stack []ast.Node, f *types.Var, pos token.Pos) bool {
	for _, n := range stack {
		ifs, ok := n.(*ast.IfStmt)
		if !ok || !(within(pos, ifs.Body) || ifs.Else != nil && within(pos, ifs.Else)) {
			continue
		}
		reads := false
		ast.Inspect(ifs.Cond, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if s := info.Selections[sel]; s != nil && s.Obj() == f {
					reads = true
				}
			}
			return !reads
		})
		if reads {
			return true
		}
	}
	return false
}

// readsAny reports whether e mentions one of the given objects.
func readsAny(info *types.Info, e ast.Expr, objs map[types.Object]bool) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && objs[info.Uses[id]] {
			found = true
		}
		return !found
	})
	return found
}
