package analysis

import (
	"go/ast"
	"go/token"
)

// This file implements the per-function control-flow graph underlying the
// flow-sensitive analyzers (gradpair, errflow, indexspace and dirtymark's
// summaries). The builder covers the statement forms that actually occur
// in placement code — if/else, three-clause and range for loops,
// switch/type-switch (including fallthrough), select, labeled
// break/continue, goto, defer, panic and short-circuit && / || / ! in
// branch conditions — and stays stdlib-only (go/ast); no
// golang.org/x/tools dependency.
//
// Granularity: each block holds a sequence of "atoms" in execution order.
// An atom is either a simple statement (assignment, expression statement,
// declaration, ...) or a bare expression: branch conditions are decomposed
// so that the operands of && and || land in separate blocks wired with the
// real short-circuit edges, which is what makes path-sensitive facts (a
// `p != nil && p.f()` guard, a conditional pool.Put) come out right.
//
// Deferred calls run at function exit, so the builder records each
// DeferStmt twice: once at its syntactic position (argument evaluation
// happens there) and once — as the bare *ast.CallExpr — in the dedicated
// exit block, in reverse (LIFO) order. A defer inside a conditional is
// thereby approximated as always-running; the repo convention is to defer
// unconditionally, and the approximation errs toward fewer false positives
// for the Put-balance check.

// A CFGBlock is one straight-line run of atoms.
type CFGBlock struct {
	Index int
	Nodes []ast.Node
	Succs []*CFGBlock
	Preds []*CFGBlock
}

// A CFG is the control-flow graph of one function body. Entry is Blocks[0];
// Exit is the unique sink every return (and the fallthrough off the end of
// the body) feeds, holding the deferred-call atoms.
type CFG struct {
	Blocks []*CFGBlock
	Entry  *CFGBlock
	Exit   *CFGBlock
}

// BuildCFG constructs the control-flow graph of a function body.
func BuildCFG(body *ast.BlockStmt) *CFG {
	b := &cfgBuilder{
		cfg:    &CFG{},
		labels: map[string]*labelTargets{},
	}
	b.cfg.Entry = b.newBlock()
	b.cfg.Exit = b.newBlock()
	b.cur = b.cfg.Entry
	b.stmtList(body.List)
	b.jumpTo(b.cfg.Exit)
	// Deferred calls execute on every exit path, last-in first-out.
	for i := len(b.deferred) - 1; i >= 0; i-- {
		b.cfg.Exit.Nodes = append(b.cfg.Exit.Nodes, b.deferred[i])
	}
	for _, blk := range b.cfg.Blocks {
		for _, s := range blk.Succs {
			s.Preds = append(s.Preds, blk)
		}
	}
	return b.cfg
}

// labelTargets records the branch targets a label resolves to.
type labelTargets struct {
	brk, cont *CFGBlock // loop/switch labels
	gotoBlk   *CFGBlock // plain goto target
}

// frame is one enclosing breakable/continuable construct.
type frame struct {
	label     string
	brk, cont *CFGBlock // cont == nil for switch/select frames
}

type cfgBuilder struct {
	cfg      *CFG
	cur      *CFGBlock // nil while the current point is unreachable
	frames   []frame
	labels   map[string]*labelTargets
	deferred []ast.Node
	// pendingLabel is set between a LabeledStmt and the loop/switch it
	// labels, so break L / continue L resolve.
	pendingLabel string
}

func (b *cfgBuilder) newBlock() *CFGBlock {
	blk := &CFGBlock{Index: len(b.cfg.Blocks)}
	b.cfg.Blocks = append(b.cfg.Blocks, blk)
	return blk
}

// add appends an atom to the current block (no-op when unreachable).
func (b *cfgBuilder) add(n ast.Node) {
	if b.cur != nil && n != nil {
		b.cur.Nodes = append(b.cur.Nodes, n)
	}
}

// edge links from → to.
func (b *cfgBuilder) edge(from, to *CFGBlock) {
	from.Succs = append(from.Succs, to)
}

// jumpTo ends the current block with an edge to target.
func (b *cfgBuilder) jumpTo(target *CFGBlock) {
	if b.cur != nil {
		b.edge(b.cur, target)
	}
	b.cur = nil
}

// startBlock begins emitting into blk.
func (b *cfgBuilder) startBlock(blk *CFGBlock) { b.cur = blk }

func (b *cfgBuilder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

func (b *cfgBuilder) stmt(s ast.Stmt) {
	if b.cur == nil && !startsReachable(s) {
		// Unreachable straight-line code after return/panic: skip. Labeled
		// statements restart reachability (goto may target them).
		return
	}
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(s.List)

	case *ast.ExprStmt:
		b.add(s)
		if isPanicCall(s.X) {
			// panic is terminal: the path never reaches the ordinary exit,
			// so exit-block facts (leak checks) exempt panicking paths.
			b.cur = nil
		}

	case *ast.ReturnStmt:
		b.add(s)
		b.jumpTo(b.cfg.Exit)

	case *ast.DeferStmt:
		b.add(s) // argument evaluation happens here
		b.deferred = append(b.deferred, s.Call)

	case *ast.IfStmt:
		if s.Init != nil {
			b.add(s.Init)
		}
		thenBlk := b.newBlock()
		elseBlk := b.newBlock()
		join := b.newBlock()
		b.cond(s.Cond, thenBlk, elseBlk)
		b.startBlock(thenBlk)
		b.stmt(s.Body)
		b.jumpTo(join)
		b.startBlock(elseBlk)
		if s.Else != nil {
			b.stmt(s.Else)
		}
		b.jumpTo(join)
		b.startBlock(join)

	case *ast.ForStmt:
		label := b.takeLabel()
		if s.Init != nil {
			b.add(s.Init)
		}
		head := b.newBlock()
		body := b.newBlock()
		post := b.newBlock()
		after := b.newBlock()
		b.jumpTo(head)
		b.startBlock(head)
		if s.Cond != nil {
			b.cond(s.Cond, body, after)
		} else {
			b.jumpTo(body)
		}
		b.pushFrame(frame{label: label, brk: after, cont: post})
		b.startBlock(body)
		b.stmt(s.Body)
		b.popFrame()
		b.jumpTo(post)
		b.startBlock(post)
		if s.Post != nil {
			b.add(s.Post)
		}
		b.jumpTo(head)
		b.startBlock(after)

	case *ast.RangeStmt:
		label := b.takeLabel()
		head := b.newBlock()
		body := b.newBlock()
		after := b.newBlock()
		b.jumpTo(head)
		b.startBlock(head)
		b.add(s) // the range atom: evaluates X, defines key/value
		b.edge(head, body)
		b.edge(head, after)
		b.cur = nil
		b.pushFrame(frame{label: label, brk: after, cont: head})
		b.startBlock(body)
		b.stmt(s.Body)
		b.popFrame()
		b.jumpTo(head)
		b.startBlock(after)

	case *ast.SwitchStmt:
		label := b.takeLabel()
		if s.Init != nil {
			b.add(s.Init)
		}
		if s.Tag != nil {
			b.add(s.Tag)
		}
		b.switchClauses(s.Body.List, label, func(cc *ast.CaseClause) ([]ast.Node, []ast.Stmt) {
			nodes := make([]ast.Node, len(cc.List))
			for i, e := range cc.List {
				nodes[i] = e
			}
			return nodes, cc.Body
		})

	case *ast.TypeSwitchStmt:
		label := b.takeLabel()
		if s.Init != nil {
			b.add(s.Init)
		}
		b.add(s.Assign)
		b.switchClauses(s.Body.List, label, func(cc *ast.CaseClause) ([]ast.Node, []ast.Stmt) {
			return nil, cc.Body
		})

	case *ast.SelectStmt:
		label := b.takeLabel()
		dispatch := b.cur
		if dispatch == nil {
			return
		}
		after := b.newBlock()
		b.pushFrame(frame{label: label, brk: after})
		for _, cl := range s.Body.List {
			cc := cl.(*ast.CommClause)
			blk := b.newBlock()
			b.edge(dispatch, blk)
			b.startBlock(blk)
			if cc.Comm != nil {
				b.stmt(cc.Comm)
			}
			b.stmtList(cc.Body)
			b.jumpTo(after)
		}
		b.popFrame()
		if len(s.Body.List) == 0 {
			b.edge(dispatch, after)
		}
		b.startBlock(after)

	case *ast.LabeledStmt:
		lt := b.labelFor(s.Label.Name)
		if lt.gotoBlk == nil {
			lt.gotoBlk = b.newBlock()
		}
		b.jumpTo(lt.gotoBlk)
		b.startBlock(lt.gotoBlk)
		b.pendingLabel = s.Label.Name
		b.stmt(s.Stmt)
		b.pendingLabel = ""

	case *ast.BranchStmt:
		b.branch(s)

	case *ast.GoStmt:
		b.add(s)

	default:
		// AssignStmt, DeclStmt, IncDecStmt, SendStmt, EmptyStmt, ...
		b.add(s)
	}
}

// switchClauses wires the shared switch/type-switch shape: every case test
// is evaluated in the dispatch block (evaluation order of case expressions
// is linear), each case body is its own block, fallthrough chains to the
// next body.
func (b *cfgBuilder) switchClauses(clauses []ast.Stmt, label string, split func(*ast.CaseClause) ([]ast.Node, []ast.Stmt)) {
	dispatch := b.cur
	if dispatch == nil {
		return
	}
	after := b.newBlock()
	b.pushFrame(frame{label: label, brk: after})
	bodies := make([]*CFGBlock, len(clauses))
	hasDefault := false
	for i, cl := range clauses {
		cc := cl.(*ast.CaseClause)
		tests, _ := split(cc)
		for _, t := range tests {
			dispatch.Nodes = append(dispatch.Nodes, t)
		}
		if cc.List == nil {
			hasDefault = true
		}
		bodies[i] = b.newBlock()
		b.edge(dispatch, bodies[i])
	}
	if !hasDefault {
		b.edge(dispatch, after)
	}
	for i, cl := range clauses {
		cc := cl.(*ast.CaseClause)
		_, body := split(cc)
		b.startBlock(bodies[i])
		// fallthrough (always the last statement of a clause) chains to the
		// next clause body.
		ft := -1
		for j, st := range body {
			if br, ok := st.(*ast.BranchStmt); ok && br.Tok == token.FALLTHROUGH {
				ft = j
				break
			}
			b.stmt(st)
			_ = j
		}
		if ft >= 0 && i+1 < len(bodies) {
			b.jumpTo(bodies[i+1])
		} else {
			b.jumpTo(after)
		}
	}
	b.popFrame()
	b.startBlock(after)
}

func (b *cfgBuilder) branch(s *ast.BranchStmt) {
	switch s.Tok {
	case token.BREAK:
		if t := b.findFrame(s.Label, false); t != nil {
			b.add(s)
			b.jumpTo(t.brk)
		}
	case token.CONTINUE:
		if t := b.findFrame(s.Label, true); t != nil {
			b.add(s)
			b.jumpTo(t.cont)
		}
	case token.GOTO:
		lt := b.labelFor(s.Label.Name)
		if lt.gotoBlk == nil {
			lt.gotoBlk = b.newBlock()
		}
		b.add(s)
		b.jumpTo(lt.gotoBlk)
	case token.FALLTHROUGH:
		// Handled inside switchClauses; a stray one ends the block.
		b.add(s)
	}
}

func (b *cfgBuilder) labelFor(name string) *labelTargets {
	lt := b.labels[name]
	if lt == nil {
		lt = &labelTargets{}
		b.labels[name] = lt
	}
	return lt
}

func (b *cfgBuilder) pushFrame(f frame) {
	b.frames = append(b.frames, f)
	if f.label != "" {
		lt := b.labelFor(f.label)
		lt.brk, lt.cont = f.brk, f.cont
	}
}

func (b *cfgBuilder) popFrame() { b.frames = b.frames[:len(b.frames)-1] }

// findFrame resolves the target of a break (needCont=false) or continue
// (needCont=true), optionally labeled.
func (b *cfgBuilder) findFrame(label *ast.Ident, needCont bool) *frame {
	if label != nil {
		lt := b.labels[label.Name]
		if lt == nil {
			return nil
		}
		if needCont {
			if lt.cont == nil {
				return nil
			}
			return &frame{brk: lt.brk, cont: lt.cont}
		}
		return &frame{brk: lt.brk, cont: lt.cont}
	}
	for i := len(b.frames) - 1; i >= 0; i-- {
		f := &b.frames[i]
		if !needCont || f.cont != nil {
			return f
		}
	}
	return nil
}

// takeLabel consumes the pending label set by an enclosing LabeledStmt.
func (b *cfgBuilder) takeLabel() string {
	l := b.pendingLabel
	b.pendingLabel = ""
	return l
}

// cond emits the short-circuit decomposition of a branch condition:
// control reaches t when e evaluates true and f when it evaluates false,
// with every primitive operand in its own block so facts can differ along
// the two outcomes.
func (b *cfgBuilder) cond(e ast.Expr, t, f *CFGBlock) {
	switch x := e.(type) {
	case *ast.ParenExpr:
		b.cond(x.X, t, f)
		return
	case *ast.BinaryExpr:
		switch x.Op {
		case token.LAND:
			mid := b.newBlock()
			b.cond(x.X, mid, f)
			b.startBlock(mid)
			b.cond(x.Y, t, f)
			return
		case token.LOR:
			mid := b.newBlock()
			b.cond(x.X, t, mid)
			b.startBlock(mid)
			b.cond(x.Y, t, f)
			return
		}
	case *ast.UnaryExpr:
		if x.Op == token.NOT {
			b.cond(x.X, f, t)
			return
		}
	}
	b.add(e)
	if b.cur != nil {
		b.edge(b.cur, t)
		b.edge(b.cur, f)
	}
	b.cur = nil
}

// startsReachable reports whether a statement can (re)start a reachable
// region even when the preceding point is unreachable: labels can be
// jumped to.
func startsReachable(s ast.Stmt) bool {
	_, ok := s.(*ast.LabeledStmt)
	return ok
}

// isPanicCall matches a direct call to the panic builtin.
func isPanicCall(e ast.Expr) bool {
	call, ok := unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := unparen(call.Fun).(*ast.Ident)
	return ok && id.Name == "panic"
}
