package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// MinMax flags calls to math.Min and math.Max inside any function reachable
// from a //dtgp:hotpath root. On amd64 they are calls into assembly that the
// compiler cannot inline, and the density and net-state kernels made two to
// four of them per bin or pin. The builtin min and max compile to inline
// instructions and return the same bits on every input that holds no NaN.
// With a NaN operand the builtins return NaN, and so do math.Min/Max, except
// that math.Max returns +Inf when the other operand is +Inf and math.Min
// returns −Inf when the other is −Inf (DESIGN.md §22).
var MinMax = &Analyzer{
	Name: "minmax",
	Doc:  "forbid math.Min/math.Max calls in functions reachable from //dtgp:hotpath roots",
	Run:  runMinMax,
}

func runMinMax(pass *Pass) error {
	for _, fi := range pass.Facts.All() {
		if fi.Pkg != pass.Pkg || !fi.HotReach {
			continue
		}
		ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fn, ok := pass.Pkg.Info.Uses[sel.Sel].(*types.Func)
			if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "math" {
				return true
			}
			if name := fn.Name(); name == "Min" || name == "Max" {
				pass.Reportf(call.Pos(),
					"math.%s call in hot-path function %s (an out-of-line call on amd64; use the builtin %s, which returns the same bits on every non-NaN input)",
					name, fi.Obj.Name(), strings.ToLower(name))
			}
			return true
		})
	}
	return nil
}
