package analysis

import (
	"go/ast"
	"go/types"
)

// MapIter flags `range` over a map inside any function reachable from a
// //dtgp:hotpath root. Go randomises map iteration order per range, so a
// map range on the forward/backward/placement paths makes the schedule —
// and through float rounding or worklist ordering, usually the result —
// differ from run to run, breaking the bit-identical-placement guarantee
// (DESIGN.md §5 "Determinism").
var MapIter = &Analyzer{
	Name: "mapiter",
	Doc:  "forbid map iteration in functions reachable from //dtgp:hotpath roots",
	Run:  runMapIter,
}

func runMapIter(pass *Pass) error {
	for _, fi := range pass.Facts.All() {
		if fi.Pkg != pass.Pkg || !fi.HotReach {
			continue
		}
		fi := fi
		ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
			rs, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			tv, ok := pass.Pkg.Info.Types[rs.X]
			if !ok {
				return true
			}
			if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
				pass.Reportf(rs.Pos(),
					"range over map %s in hot-path function %s (map iteration order is nondeterministic; use a sorted key slice or a worklist in index order)",
					types.ExprString(rs.X), fi.Obj.Name())
			}
			return true
		})
	}
	return nil
}
