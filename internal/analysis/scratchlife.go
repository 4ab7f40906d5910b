package analysis

import (
	"go/ast"
	"go/types"
	"sort"
)

// ScratchLife verifies the lifetime discipline of sync.Pool-backed scratch
// buffers (the RC-tree buildPool, the RSMT scratchPool, per-worker timer
// scratch): under the persistent worker pool a scratch object is handed to
// the next rebuild the moment it is Put, so the discipline is strict —
// every pool.Get must reach exactly one pool.Put on every non-panicking
// path, no alias of the scratch may be read after the Put, and no alias
// may outlive the function (escape via return, a field/global store, or a
// goroutine).
//
// The analysis is flow-sensitive over the function CFG. Aliases are
// grown from the Get result through local assignments (including
// subslices: off := s.off[:n] aliases s's backing memory). Passing an
// alias as an ordinary call argument is fine — callees are expected to
// borrow, not keep — but returning it, storing it into any non-local
// location, or capturing it in a go statement is reported. Panicking
// paths are exempt: a leaked pool entry on a panic path is garbage, not
// corruption.
var ScratchLife = &Analyzer{
	Name: "scratchlife",
	Doc:  "prove sync.Pool scratch Get/Put balance on every path and flag escapes and uses after Put",
	Run:  runScratchLife,
}

func runScratchLife(pass *Pass) error {
	for _, fi := range pass.Facts.All() {
		if fi.Pkg != pass.Pkg {
			continue
		}
		checkScratchLife(pass, fi)
	}
	return nil
}

// scratchSite is one pool.Get assignment and its alias closure.
type scratchSite struct {
	id      int
	pos     ast.Node // the Get assignment, for leak reports
	name    string   // display name of the Get target
	members map[types.Object]bool
}

func checkScratchLife(pass *Pass, fi *FuncInfo) {
	info := fi.Pkg.Info
	cs := &cellScanner{info: info}

	// Pass 1: find Get sites.
	var sites []*scratchSite
	ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Rhs) != 1 || len(as.Lhs) != 1 {
			return true
		}
		if !isPoolCall(info, as.Rhs[0], "Get") {
			return true
		}
		id, ok := unparen(as.Lhs[0]).(*ast.Ident)
		if !ok || id.Name == "_" {
			return true
		}
		obj := info.ObjectOf(id)
		if obj == nil {
			return true
		}
		s := &scratchSite{id: len(sites), pos: as, name: id.Name, members: map[types.Object]bool{obj: true}}
		sites = append(sites, s)
		return true
	})
	if len(sites) == 0 {
		return
	}

	// Pass 2: grow alias closures through local assignments to a fixpoint.
	owner := func(e ast.Expr) *scratchSite {
		cell, _, ok := cs.resolve(e)
		if !ok {
			return nil
		}
		for _, s := range sites {
			if s.members[cell.root] {
				return s
			}
		}
		return nil
	}
	for changed := true; changed; {
		changed = false
		ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok || len(as.Lhs) != len(as.Rhs) {
				return true
			}
			for i, lhs := range as.Lhs {
				id, ok := unparen(lhs).(*ast.Ident)
				if !ok || id.Name == "_" {
					continue
				}
				s := owner(as.Rhs[i])
				if s == nil {
					continue
				}
				obj := info.ObjectOf(id)
				if obj == nil || !within(obj.Pos(), fi.Decl) {
					continue // only body-locals alias; a non-local LHS is an escape (pass 3)
				}
				if !s.members[obj] {
					s.members[obj] = true
					changed = true
				}
			}
			return true
		})
	}

	// Pass 3: syntactic escapes.
	ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ReturnStmt:
			for _, r := range n.Results {
				if s := owner(r); s != nil {
					pass.Reportf(r.Pos(),
						"pool scratch alias %s (from %s := pool.Get) escapes via return; the pool may hand the buffer to another worker while the caller still holds it",
						types.ExprString(r), s.name)
				}
			}
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				if i >= len(n.Rhs) {
					break
				}
				s := owner(n.Rhs[i])
				if s == nil {
					continue
				}
				cell, _, ok := cs.resolve(lhs)
				if !ok {
					continue
				}
				if s.members[cell.root] {
					continue // writing into the scratch itself
				}
				local := false
				if v, okv := cell.root.(*types.Var); okv && within(v.Pos(), fi.Decl) && cell.path == "" {
					local = true // plain local: becomes an alias, handled above
				}
				if !local {
					pass.Reportf(lhs.Pos(),
						"pool scratch alias (from %s := pool.Get) stored into %s, which outlives the function; rebuild-in-place will corrupt it once the buffer is re-Put",
						s.name, cell.display())
				}
			}
		case *ast.GoStmt:
			ast.Inspect(n.Call, func(m ast.Node) bool {
				id, ok := m.(*ast.Ident)
				if !ok {
					return true
				}
				obj := info.Uses[id]
				if obj == nil {
					return true
				}
				for _, s := range sites {
					if s.members[obj] {
						pass.Reportf(id.Pos(),
							"pool scratch alias %s (from %s := pool.Get) captured by a goroutine; its lifetime is unbounded while the pool recycles the buffer",
							id.Name, s.name)
						return true
					}
				}
				return true
			})
		}
		return true
	})

	// Pass 4: flow analysis. Two forward may-facts per site over the CFG:
	// heldNoPut (Get seen, no Put yet — set at exit means a leaking path)
	// and putReach (a Put may have executed — any alias read is
	// use-after-put, another Put a double-Put).
	cfg := BuildCFG(fi.Decl.Body)
	n := len(sites)
	classify := func(atom ast.Node) (get, put *scratchSite) {
		switch a := atom.(type) {
		case *ast.AssignStmt:
			for _, s := range sites {
				if s.pos == ast.Node(a) {
					return s, nil
				}
			}
		case *ast.ExprStmt:
			return nil, putTarget(info, a.X, sites, owner)
		case *ast.CallExpr:
			// A deferred call replayed in the exit block.
			return nil, putTarget(info, a, sites, owner)
		}
		return nil, nil
	}

	held := &FlowProblem{CFG: cfg, NBits: n, Gen: make([]bvec, len(cfg.Blocks)), Kill: make([]bvec, len(cfg.Blocks))}
	putR := &FlowProblem{CFG: cfg, NBits: n, Gen: make([]bvec, len(cfg.Blocks)), Kill: make([]bvec, len(cfg.Blocks))}
	for bi, blk := range cfg.Blocks {
		hg, hk := newBvec(n), newBvec(n)
		pg, pk := newBvec(n), newBvec(n)
		for _, atom := range blk.Nodes {
			get, put := classify(atom)
			if get != nil {
				hg.set(get.id)
				pg.clear(get.id)
				pk.set(get.id)
			}
			if put != nil {
				hg.clear(put.id)
				hk.set(put.id)
				pg.set(put.id)
			}
		}
		held.Gen[bi], held.Kill[bi] = hg, hk
		putR.Gen[bi], putR.Kill[bi] = pg, pk
	}
	heldRes := held.Solve()
	putRes := putR.Solve()

	// Leaks: held at the end of the exit block.
	exitOut := heldRes.Out[cfg.Exit.Index]
	var leaks []*scratchSite
	for _, s := range sites {
		if exitOut.has(s.id) {
			leaks = append(leaks, s)
		}
	}
	sort.Slice(leaks, func(i, j int) bool { return leaks[i].pos.Pos() < leaks[j].pos.Pos() })
	for _, s := range leaks {
		pass.Reportf(s.pos.Pos(),
			"pool.Get result %s is not returned via pool.Put on every path (leaks defeat buffer reuse and grow steady-state allocation)", s.name)
	}

	// Use-after-put / double-Put: re-walk each block at atom granularity.
	fact := newBvec(n)
	for bi, blk := range cfg.Blocks {
		fact.copyFrom(putRes.In[bi])
		for _, atom := range blk.Nodes {
			get, put := classify(atom)
			switch {
			case get != nil:
				fact.clear(get.id)
			case put != nil:
				if fact.has(put.id) {
					pass.Reportf(atom.Pos(),
						"second pool.Put of scratch %s on some path (double-Put hands the same buffer to two workers)", put.name)
				}
				fact.set(put.id)
			case isDeferAtom(atom):
				// Argument evaluation only; the Put itself replays at exit.
			default:
				reportAliasReads(pass, info, atom, sites, fact)
			}
		}
	}
}

func isDeferAtom(atom ast.Node) bool {
	_, ok := atom.(*ast.DeferStmt)
	return ok
}

// reportAliasReads flags reads of any alias whose site has a reaching Put.
func reportAliasReads(pass *Pass, info *types.Info, atom ast.Node, sites []*scratchSite, fact bvec) {
	reported := map[int]bool{}
	ast.Inspect(atom, func(m ast.Node) bool {
		id, ok := m.(*ast.Ident)
		if !ok {
			return true
		}
		obj := info.Uses[id]
		if obj == nil {
			return true
		}
		for _, s := range sites {
			if s.members[obj] && fact.has(s.id) && !reported[s.id] {
				reported[s.id] = true
				pass.Reportf(id.Pos(),
					"use of scratch alias %s after pool.Put(%s) on some path (the pool may already have handed the buffer to another worker)",
					id.Name, s.name)
			}
		}
		return true
	})
}

// putTarget resolves a pool.Put call whose argument aliases a tracked
// scratch site.
func putTarget(info *types.Info, e ast.Expr, sites []*scratchSite, owner func(ast.Expr) *scratchSite) *scratchSite {
	call, ok := unparen(e).(*ast.CallExpr)
	if !ok || len(call.Args) != 1 {
		return nil
	}
	if !isPoolCall(info, call, "Put") {
		return nil
	}
	arg := unparen(call.Args[0])
	if u, okU := arg.(*ast.UnaryExpr); okU {
		arg = u.X
	}
	return owner(arg)
}

// isPoolCall reports whether e is a (possibly type-asserted) call of
// method `name` on a sync.Pool value.
func isPoolCall(info *types.Info, e ast.Expr, name string) bool {
	x := unparen(e)
	if ta, ok := x.(*ast.TypeAssertExpr); ok {
		x = unparen(ta.X)
	}
	call, ok := x.(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != name {
		return false
	}
	tv, ok := info.Types[sel.X]
	if !ok {
		return false
	}
	return isSyncPool(tv.Type)
}

// isSyncPool matches sync.Pool and *sync.Pool.
func isSyncPool(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync" && obj.Name() == "Pool"
}
