// Package grad exercises the gradpair analyzer: pairing cardinality,
// receiver agreement, explicit-grad signatures, and the flow-sensitive
// adjoint check, including the seeded wrong-gradient mutation (a deleted
// adjoint accumulation) that the analyzer exists to catch.
package grad

// Op is a differentiable operator with per-element state and adjoints.
type Op struct {
	Cap, Res, Delay []float64
	Tmp             []float64
	Hard            []float64
	gCap, gRes      []float64
}

// Forward reads Cap and Res: both are differentiable inputs.
//
//dtgp:forward(mut)
func (o *Op) Forward() float64 {
	s := 0.0
	for i := range o.Cap {
		s += o.Cap[i] * o.Res[i]
	}
	return s
}

// Backward is the seeded wrong-gradient mutation: the o.gRes accumulation
// that d(Cap·Res)/dRes requires has been deleted, so gradpair must report
// the Res read in Forward as an input with no adjoint.
//
//dtgp:backward(mut)
func (o *Op) Backward(g float64) {
	for i := range o.Cap {
		o.gCap[i] += g * o.Res[i]
	}
}

// FlowForward is the flow-sensitivity witness: copy overwrites Tmp on every
// path, so the later Tmp reads are intermediates, not inputs — only Cap
// (read by the copy) and Res are inputs, and both have adjoints. Clean.
//
//dtgp:forward(flow)
func (o *Op) FlowForward() float64 {
	copy(o.Tmp, o.Cap)
	s := 0.0
	for i := range o.Tmp {
		o.Tmp[i] *= o.Res[i]
		s += o.Tmp[i]
	}
	return s
}

//dtgp:backward(flow)
func (o *Op) FlowBackward(g float64) {
	for i := range o.Cap {
		o.gCap[i] += g * o.Res[i]
		o.gRes[i] += g * o.Cap[i]
	}
}

// DepthForward reads Delay through one index level but the backward
// accumulates through two: an index-space mismatch.
//
//dtgp:forward(depth)
func (o *Op) DepthForward() float64 {
	return o.Delay[0]
}

//dtgp:backward(depth)
func (o *Op) DepthBackward(gDelay [][]float64) {
	gDelay[0][0] += 1
}

// NDForward reads Hard, which the pair deliberately does not differentiate
// (the hard arrival channel). Declared nondiff: clean.
//
//dtgp:forward(nd)
//dtgp:nondiff(Hard)
func (o *Op) NDForward() float64 {
	return o.Cap[0] + o.Hard[0]
}

//dtgp:backward(nd)
func (o *Op) NDBackward(g float64) {
	o.gCap[0] += g
}

// SupForward has a missing adjoint the author vouches for: suppressed.
//
//dtgp:forward(sup)
func (o *Op) SupForward() float64 {
	return o.Res[1] //dtgp:allow(gradpair) adjoint accumulated by the fused caller
}

//dtgp:backward(sup)
func (o *Op) SupBackward() {}

// Orphan has no backward half anywhere in the module.
//
//dtgp:forward(orphan)
func Orphan(x float64) float64 { return x }

// DupF's op has two backward halves: the second is a duplicate.
//
//dtgp:forward(dup)
func DupF(o *Op) float64 { return o.Cap[2] }

//dtgp:backward(dup)
func DupB1(o *Op) { o.gCap[2] += 1 }

//dtgp:backward(dup)
func DupB2(o *Op) { o.gCap[2] += 1 }

// Malformed omits the operator name.
//
//dtgp:forward()
func Malformed() {}

// Lonely declares nondiff without being a forward half.
//
//dtgp:nondiff(Cap)
func Lonely() {}

// Smooth/SmoothGrad form an explicit-grad pair whose backward dropped the
// xs parameter: it differentiates a different function.
//
//dtgp:forward(esig, explicit-grad)
func Smooth(gamma float64, xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x / gamma
	}
	return s
}

//dtgp:backward(esig, explicit-grad)
func SmoothGrad(gamma float64) (float64, []float64) {
	return gamma, nil
}

// Grads hangs the recv-pair backward off a different receiver type than
// its forward: a wiring bug.
type Grads struct {
	gCap []float64
}

//dtgp:forward(recv)
func (o *Op) RecvF() float64 { return o.Cap[3] }

//dtgp:backward(recv)
func (g *Grads) RecvB() { g.gCap[3] += 1 }

// ConeOp models the cone-restricted sparse backward: adjoints are only
// accumulated for elements marked in the cone, everything else keeps a
// decayed stale gradient.
type ConeOp struct {
	Cap, Res   []float64
	InCone     []bool
	gCap, gRes []float64
	staleC     []float64
}

// ConeForward reads Cap and Res like the full pair.
//
//dtgp:forward(cone)
func (o *ConeOp) ConeForward() float64 {
	s := 0.0
	for i := range o.Cap {
		s += o.Cap[i] * o.Res[i]
	}
	return s
}

// ConeBackward accumulates both adjoints, but only under the cone mask —
// the flow-sensitive walk must accept guarded accumulation as a valid
// adjoint for the unconditional forward read. Clean.
//
//dtgp:backward(cone)
func (o *ConeOp) ConeBackward(g float64) {
	for i := range o.Cap {
		if !o.InCone[i] {
			o.gCap[i] = o.staleC[i]
			continue
		}
		o.gCap[i] += g * o.Res[i]
		o.gRes[i] += g * o.Cap[i]
		o.staleC[i] = o.gCap[i]
	}
}

// ConeDropForward/Backward is the seeded cone mutation: the masked gRes
// accumulation was deleted, so the sparse variant silently differentiates
// a different function inside the cone. gradpair must flag Res.
//
//dtgp:forward(conedrop)
func (o *ConeOp) ConeDropForward() float64 {
	s := 0.0
	for i := range o.Cap {
		s += o.Cap[i] * o.Res[i]
	}
	return s
}

//dtgp:backward(conedrop)
func (o *ConeOp) ConeDropBackward(g float64) {
	for i := range o.Cap {
		if !o.InCone[i] {
			continue
		}
		o.gCap[i] += g * o.Res[i]
	}
}

// Wires is a pin-indexed view of per-net results that Timer holds as a
// nested field, so a kernel reads a column two field steps deep
// (t.w.Delay[pid]); the adjoints are top-level columns named after the
// view's columns.
type Wires struct {
	Delay, ImpulseSq []float64
}

type Timer struct {
	w                       Wires
	AT                      []float64
	gAT, gDelay, gImpulseSq []float64
}

// ViewForward reads both view columns through the nested field, and
// ViewBackward accumulates both adjoints at the same pin. Clean.
//
//dtgp:forward(view)
func (t *Timer) ViewForward(pid, u int) {
	t.AT[pid] = t.AT[u] + t.w.Delay[pid] + t.w.ImpulseSq[pid]
}

//dtgp:backward(view)
func (t *Timer) ViewBackward(pid, u int) {
	g := t.gAT[pid]
	t.gAT[u] += g
	t.gDelay[pid] += g
	t.gImpulseSq[pid] += g
}

// ViewDropForward/Backward is the seeded view mutation: the backward
// dropped the gDelay accumulation, so gradpair must flag the nested
// t.w.Delay read.
//
//dtgp:forward(viewdrop)
func (t *Timer) ViewDropForward(pid, u int) {
	t.AT[pid] = t.AT[u] + t.w.Delay[pid] + t.w.ImpulseSq[pid]
}

//dtgp:backward(viewdrop)
func (t *Timer) ViewDropBackward(pid, u int) {
	g := t.gAT[pid]
	t.gAT[u] += g
	t.gImpulseSq[pid] += g
}
