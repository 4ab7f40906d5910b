package analysis

// Generic bit-vector dataflow over the CFG of one function: a worklist
// solver parameterised by direction (forward/backward) and join (may/must),
// with per-block gen/kill transfer functions. Reaching definitions and
// liveness — the two instances the analyzers need — are built on top in
// cells.go and errflow.go. The solver carries its own tiny bit-vector type
// with the set algebra it needs.

// bvec is a fixed-width bit vector.
type bvec []uint64

func newBvec(nbits int) bvec { return make(bvec, (nbits+63)/64) }

func (v bvec) set(i int)       { v[i/64] |= 1 << (i % 64) }
func (v bvec) clear(i int)     { v[i/64] &^= 1 << (i % 64) }
func (v bvec) has(i int) bool  { return v[i/64]&(1<<(i%64)) != 0 }
func (v bvec) copyFrom(o bvec) { copy(v, o) }

func (v bvec) or(o bvec) {
	for i := range v {
		v[i] |= o[i]
	}
}

func (v bvec) and(o bvec) {
	for i := range v {
		v[i] &= o[i]
	}
}

func (v bvec) equal(o bvec) bool {
	for i := range v {
		if v[i] != o[i] {
			return false
		}
	}
	return true
}

func (v bvec) fill() {
	for i := range v {
		v[i] = ^uint64(0)
	}
}

// transfer applies out = gen ∪ (in − kill) into dst.
func (v bvec) transfer(in, gen, kill bvec) {
	for i := range v {
		v[i] = gen[i] | (in[i] &^ kill[i])
	}
}

// FlowProblem is a gen/kill dataflow problem over a CFG. Gen and Kill are
// indexed by block; the solver computes the fixed point of
//
//	out[b] = Gen[b] ∪ (in[b] − Kill[b])
//
// where in[b] joins the out-facts of b's predecessors (successors when
// Backward). Must selects intersection as the join (⊤ = all bits) instead
// of the default union (⊥ = no bits). Boundary, when non-nil, seeds the
// in-fact of the entry block (exit block when Backward).
type FlowProblem struct {
	CFG      *CFG
	NBits    int
	Gen      []bvec
	Kill     []bvec
	Backward bool
	Must     bool
	Boundary bvec
}

// FlowResult holds the solved in/out fact for every block, indexed by
// CFGBlock.Index. For backward problems In[b] is the fact at block entry
// (i.e. the join over successors pushed through the block) and Out[b] the
// fact at block exit, same as forward — only the propagation direction
// differs.
type FlowResult struct {
	In, Out []bvec
}

// Solve runs the worklist algorithm to a fixed point.
func (p *FlowProblem) Solve() *FlowResult {
	n := len(p.CFG.Blocks)
	res := &FlowResult{In: make([]bvec, n), Out: make([]bvec, n)}
	for i := 0; i < n; i++ {
		res.In[i] = newBvec(p.NBits)
		res.Out[i] = newBvec(p.NBits)
		if p.Must {
			res.In[i].fill()
			res.Out[i].fill()
		}
	}
	// src is the fact flowing into a block; dst the fact flowing out, in
	// propagation order (swapped for backward problems).
	src, dst := res.In, res.Out
	edgesIn := func(b *CFGBlock) []*CFGBlock { return b.Preds }
	edgesOut := func(b *CFGBlock) []*CFGBlock { return b.Succs }
	start := p.CFG.Entry
	if p.Backward {
		src, dst = res.Out, res.In
		edgesIn, edgesOut = edgesOut, edgesIn
		start = p.CFG.Exit
	}

	if p.Boundary != nil {
		src[start.Index].copyFrom(p.Boundary)
	} else if p.Must {
		// The boundary fact of a must-problem is ⊥: nothing holds on entry.
		for i := range src[start.Index] {
			src[start.Index][i] = 0
		}
	}

	work := make([]*CFGBlock, 0, n)
	inWork := make([]bool, n)
	for _, b := range p.CFG.Blocks {
		work = append(work, b)
		inWork[b.Index] = true
	}
	join := newBvec(p.NBits)
	for len(work) > 0 {
		b := work[0]
		work = work[1:]
		inWork[b.Index] = false

		if b != start {
			preds := edgesIn(b)
			if p.Must {
				join.fill()
			} else {
				for i := range join {
					join[i] = 0
				}
			}
			if p.Must && len(preds) == 0 {
				// Unreachable block in a must-problem keeps ⊤.
			}
			for _, pr := range preds {
				if p.Must {
					join.and(dst[pr.Index])
				} else {
					join.or(dst[pr.Index])
				}
			}
			src[b.Index].copyFrom(join)
		}

		join.transfer(src[b.Index], p.Gen[b.Index], p.Kill[b.Index])
		if join.equal(dst[b.Index]) {
			continue
		}
		dst[b.Index].copyFrom(join)
		for _, s := range edgesOut(b) {
			if !inWork[s.Index] {
				inWork[s.Index] = true
				work = append(work, s)
			}
		}
	}
	return res
}
