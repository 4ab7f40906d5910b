package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// ParSafe inspects every kernel passed to a parallel dispatch primitive
// (parallel.ForCost / ForWorker / ForGuided / Run, package-level or Pool
// method, and For, which the parsafe fixture's stub pool declares) —
// function literals, named functions and method values alike — and flags
// three classes of kernel-body bug:
//
//   - writes to captured variables that are not index-disjoint: the pool
//     runs the literal concurrently on several lanes, so a plain captured
//     write is a data race, and even a "benign" one makes the result
//     schedule-dependent. Indexed writes (out[i] = …) are assumed
//     disjoint — that is the pool's documented contract — except map
//     writes, which race on the map header regardless of key.
//   - nested dispatch: a kernel body submitting to the pool again. It
//     cannot deadlock (TryLock falls back to serial) but it silently
//     serialises the inner kernel; restructure instead.
//   - calls to non-reentrant package-level APIs: the global math/rand
//     generator serialises lanes on its internal lock and makes results
//     schedule-dependent.
var ParSafe = &Analyzer{
	Name: "parsafe",
	Doc:  "check function literals passed to parallel.For*/Run for captured writes, nested dispatch and non-reentrant calls",
	Run:  runParSafe,
}

// dispatchNames are the parallel primitives that execute a kernel body on
// multiple lanes.
var dispatchNames = map[string]bool{
	"For": true, "ForCost": true, "ForWorker": true, "ForGuided": true, "Run": true,
}

// parallelPkgSuffix identifies the pool package by import-path suffix, so
// fixture packages can stub it without colliding with the real module path.
const parallelPkgSuffix = "internal/parallel"

// isDispatch reports whether the call invokes a parallel dispatch
// primitive, resolving through pass type info.
func isDispatch(info *types.Info, call *ast.CallExpr) (*types.Func, bool) {
	var obj types.Object
	switch fun := unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = info.Uses[fun]
	case *ast.SelectorExpr:
		obj = info.Uses[fun.Sel]
	default:
		return nil, false
	}
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil || !dispatchNames[fn.Name()] {
		return nil, false
	}
	if !strings.HasSuffix(fn.Pkg().Path(), parallelPkgSuffix) {
		return nil, false
	}
	return fn, true
}

func runParSafe(pass *Pass) error {
	for _, fi := range pass.Facts.All() {
		if fi.Pkg != pass.Pkg {
			continue
		}
		ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if _, ok := isDispatch(pass.Pkg.Info, call); !ok {
				return true
			}
			for _, arg := range call.Args {
				switch a := unparen(arg).(type) {
				case *ast.FuncLit:
					checkKernelBody(pass, pass.Pkg.Info, a, a.Body, nil)
				case *ast.Ident, *ast.SelectorExpr:
					// Named function or method value used as the kernel:
					// resolve the callee and check its body too (it runs on
					// multiple lanes exactly like a literal would).
					if ki := namedKernel(pass, a); ki != nil {
						recv := receiverVar(ki)
						checkKernelBody(pass, ki.Pkg.Info, ki.Decl, ki.Decl.Body, recv)
					}
				}
			}
			return true
		})
	}
	return nil
}

// namedKernel resolves a non-literal dispatch argument to a module
// function with a body. Stored closure fields (t.fwdFn) resolve to vars,
// not funcs, and stay out of reach — the repo convention is to bind those
// from named methods, which are checked at their own dispatch sites.
func namedKernel(pass *Pass, arg ast.Expr) *FuncInfo {
	var obj types.Object
	switch a := unparen(arg).(type) {
	case *ast.Ident:
		obj = pass.Pkg.Info.Uses[a]
	case *ast.SelectorExpr:
		obj = pass.Pkg.Info.Uses[a.Sel]
	}
	fn, ok := obj.(*types.Func)
	if !ok {
		return nil
	}
	return pass.Facts.Funcs[fn]
}

// receiverVar returns the declared receiver variable of a method, if any.
func receiverVar(fi *FuncInfo) *types.Var {
	sig, ok := fi.Obj.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	return sig.Recv()
}

// checkKernelBody applies the three parsafe checks to one kernel body.
// scope is the node whose locals are lane-private (the literal, or the
// whole declaration for a named kernel); recv is the shared receiver of a
// method-value kernel — every lane gets the same receiver, so non-indexed
// writes through it race just like captured writes.
func checkKernelBody(pass *Pass, info *types.Info, scope ast.Node, body *ast.BlockStmt, recv *types.Var) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch stmt := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range stmt.Lhs {
				checkKernelWrite(pass, info, scope, recv, lhs)
			}
		case *ast.IncDecStmt:
			checkKernelWrite(pass, info, scope, recv, stmt.X)
		case *ast.CallExpr:
			if fn, ok := isDispatch(info, stmt); ok {
				pass.Reportf(stmt.Pos(),
					"nested parallel dispatch %s inside a kernel body (runs serially via the TryLock fallback; hoist or restructure the kernel)", fn.Name())
			} else if fn := calleeOf(info, stmt); fn != nil && isNonReentrant(fn) {
				pass.Reportf(stmt.Pos(),
					"call to non-reentrant %s from a parallel kernel (global generator state serialises lanes and makes results schedule-dependent; use a per-worker rand.Rand)", funcKey(fn))
			} else {
				checkKernelCallee(pass, info, stmt, scope, recv)
			}
		}
		return true
	})
}

// checkKernelWrite flags writes through captured (or shared-receiver),
// non-indexed locations.
func checkKernelWrite(pass *Pass, info *types.Info, scope ast.Node, recv *types.Var, lhs ast.Expr) {
	if id, ok := unparen(lhs).(*ast.Ident); ok && id.Name == "_" {
		return
	}
	// A write to a map element races on the map header no matter how
	// disjoint the keys are.
	if ix, ok := unparen(lhs).(*ast.IndexExpr); ok {
		if tv, ok := info.Types[ix.X]; ok {
			if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
				pass.Reportf(lhs.Pos(),
					"write to map %s from a parallel kernel (concurrent map writes race regardless of key disjointness)",
					types.ExprString(ix.X))
				return
			}
		}
	}
	root, indexed := lvalueRoot(lhs)
	if indexed || root == nil {
		return // indexed writes are the pool's disjoint-write contract
	}
	obj := info.Uses[root]
	if obj == nil {
		obj = info.Defs[root]
	}
	v, ok := obj.(*types.Var)
	if !ok {
		return
	}
	if recv != nil && v == recv {
		// Every lane is handed the same receiver: a non-indexed write
		// through it is shared state even though the receiver is
		// syntactically a local of the method.
		pass.Reportf(lhs.Pos(),
			"write to shared receiver state %s from a parallel method-value kernel (every lane shares the receiver; not index- or worker-disjoint)",
			types.ExprString(lhs))
		return
	}
	if within(v.Pos(), scope) {
		return // kernel-local variable or parameter
	}
	pass.Reportf(lhs.Pos(),
		"write to captured variable %s from a parallel kernel (not index- or worker-disjoint; lanes race and the result depends on the schedule)",
		types.ExprString(lhs))
}

// checkKernelCallee consults the interprocedural summaries for calls whose
// callee (transitively) writes through a pointer parameter: the write
// happens inside the callee, out of reach of the syntactic captured-write
// check above, but if the argument roots at a captured variable — or the
// shared receiver of a method-value kernel — every lane still funnels into
// the same location. Indexed arguments (&out[i]) stay exempt: they select
// a lane-disjoint element, which is the pool's contract.
func checkKernelCallee(pass *Pass, info *types.Info, call *ast.CallExpr, scope ast.Node, recv *types.Var) {
	ip := pass.Facts.Interproc(pass.Prog)
	callee := ip.CG.UnitOf(info, call.Fun)
	if callee == nil || callee.Lit != nil {
		return
	}
	sum := ip.Summaries[callee.Index]
	if sum.ParamWrites == 0 {
		return
	}
	sig, ok := callee.Fn.Obj.Type().(*types.Signature)
	if !ok {
		return
	}
	off := 0
	if sig.Recv() != nil {
		off = 1
	}
	for bit := 0; bit < 64; bit++ {
		if !sum.WritesParam(bit) {
			continue
		}
		var arg ast.Expr
		if off == 1 && bit == 0 {
			if sel, ok := unparen(call.Fun).(*ast.SelectorExpr); ok {
				arg = sel.X
			}
		} else if i := bit - off; i >= 0 && i < len(call.Args) {
			arg = call.Args[i]
		}
		if arg == nil {
			continue
		}
		v := nonIndexedRoot(info, arg)
		if v == nil {
			continue
		}
		if recv != nil && v == recv {
			pass.Reportf(arg.Pos(),
				"call to %s writes shared receiver state %s from a parallel method-value kernel (the callee writes through its %s; every lane shares the receiver)",
				callee.Name(), types.ExprString(arg), summaryParamName(sig, bit))
			continue
		}
		if within(v.Pos(), scope) {
			continue // kernel-local root: lane-private
		}
		pass.Reportf(arg.Pos(),
			"call to %s writes captured variable %s from a parallel kernel (the callee writes through its %s; not index- or worker-disjoint, lanes race)",
			callee.Name(), types.ExprString(arg), summaryParamName(sig, bit))
	}
}

// summaryParamName renders a ParamWrites bit for diagnostics.
func summaryParamName(sig *types.Signature, bit int) string {
	if sig.Recv() != nil {
		if bit == 0 {
			return "receiver"
		}
		bit--
	}
	if bit < sig.Params().Len() && sig.Params().At(bit).Name() != "" {
		return "parameter " + sig.Params().At(bit).Name()
	}
	return "parameter"
}

// calleeOf resolves a call's static callee, if any.
func calleeOf(info *types.Info, call *ast.CallExpr) *types.Func {
	var obj types.Object
	switch fun := unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = info.Uses[fun]
	case *ast.SelectorExpr:
		obj = info.Uses[fun.Sel]
	default:
		return nil
	}
	fn, _ := obj.(*types.Func)
	return fn
}

// isNonReentrant lists package-level APIs whose hidden global state makes
// them unsafe or schedule-dependent inside kernels.
func isNonReentrant(fn *types.Func) bool {
	if fn.Pkg() == nil {
		return false
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		return false // methods on caller-owned state (e.g. *rand.Rand) are fine
	}
	switch fn.Pkg().Path() {
	case "math/rand", "math/rand/v2":
		return true
	}
	return false
}
