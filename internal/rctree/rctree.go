// Package rctree turns a net's Steiner tree into an RC tree rooted at the
// driver pin and evaluates the Elmore delay model on it — both the forward
// quantities (load, delay, impulse; paper Eq. 7) and the full backward
// gradient sweep (paper Eq. 8) down to per-node coordinate gradients.
//
// Unit convention: resistance in kΩ, capacitance in fF, so every R·C
// product is directly in ps.
package rctree

import (
	"fmt"
	"math"

	"dtgp/internal/rsmt"
)

// Tree is an RC tree with Elmore state: a view of node windows that its
// owner keeps (a net-state column, or a test's slices), each with room for
// the nodes of the Steiner tree it is extracted from. Node indices coincide
// with that tree's nodes; the root is the driver pin's node. The net
// states' view setter, timing.NetStates.RC (marker timing.RC), points the
// fields at a net's windows without writing in them, so it is one of each
// cached field's markers.
type Tree struct {
	//dtgp:cached by=Rebuild,timing.RC
	N int
	//dtgp:cached by=Rebuild,timing.RC
	Root int32 //dtgp:index domain=rcnode
	// Parent/Order are the rooted topology, re-derived from the Steiner
	// tree by Rebuild only.
	//dtgp:cached by=Rebuild,timing.RC
	Parent []int32 //dtgp:index domain=rcnode elem=rcnode
	// Order is preorder: parents precede children.
	//dtgp:cached by=Rebuild,timing.RC
	Order []int32 //dtgp:index elem=rcnode
	// Res[u] is the resistance of the edge Parent[u]→u (kΩ); Res[Root]=0.
	//dtgp:cached by=Rebuild,RefreshGeometry,timing.RC
	Res []float64 //dtgp:index domain=rcnode
	// Cap[u] is the lumped capacitance at u (fF): attached pin caps plus
	// half the wire cap of each incident edge.
	//dtgp:cached by=Rebuild,RefreshGeometry,timing.RC
	Cap []float64 //dtgp:index domain=rcnode

	// Forward results (Eq. 7), valid only after a Forward over the current
	// Res/Cap state.
	// Load is downstream capacitance.
	//dtgp:cached by=Forward,Rebuild,timing.RC
	Load []float64 //dtgp:index domain=rcnode
	// Delay is the Elmore delay from root.
	//dtgp:cached by=Forward,Rebuild,timing.RC
	Delay []float64 //dtgp:index domain=rcnode
	// LDelay is Σ_subtree Cap·Delay (slew intermediate).
	//dtgp:cached by=Forward,Rebuild,timing.RC
	LDelay []float64 //dtgp:index domain=rcnode
	// Beta is the second moment accumulator.
	//dtgp:cached by=Forward,Rebuild,timing.RC
	Beta []float64 //dtgp:index domain=rcnode
	// Impulse is sqrt(2·Beta − Delay²), the slew impulse.
	//dtgp:cached by=Forward,Rebuild,timing.RC
	Impulse []float64 //dtgp:index domain=rcnode

	// Geometry bookkeeping for the coordinate gradient. X and Y are the
	// node coordinates of the Steiner tree (its X/Y windows), which
	// RefreshGeometry and BackwardInto read; RPerUnit and CPerUnit are the
	// wire RC densities per DBU.
	X, Y               []float64 //dtgp:index domain=rcnode
	RPerUnit, CPerUnit float64
	// EdgeLen is the length of edge Parent[u]→u.
	//dtgp:cached by=Rebuild,RefreshGeometry,timing.RC
	EdgeLen []float64 //dtgp:index domain=rcnode
}

// Grad holds the backward sweep results.
type Grad struct {
	Beta, LDelay, Delay, Load []float64 //dtgp:index domain=rcnode
	// Cap is ∂f/∂Cap(u); Res is ∂f/∂Res(parent→u).
	Cap []float64 //dtgp:index domain=rcnode
	Res []float64 //dtgp:index domain=rcnode
	// X, Y are ∂f/∂(node coordinate) after mapping RC gradients through
	// the wire geometry; redistribute Steiner entries with
	// rsmt.Tree.XPin/YPin.
	X, Y []float64 //dtgp:index domain=rcnode
}

// PreSize points g's eight columns at f, which must have length 8*m, so
// that BackwardInto can sweep any tree of up to m nodes into g.
func (g *Grad) PreSize(m int, f []float64) {
	if len(f) != 8*m {
		panic(fmt.Sprintf("rctree: Grad.PreSize(%d) with len %d", m, len(f)))
	}
	g.Beta = f[0*m : 1*m : 1*m]
	g.LDelay = f[1*m : 2*m : 2*m]
	g.Delay = f[2*m : 3*m : 3*m]
	g.Load = f[3*m : 4*m : 4*m]
	g.Cap = f[4*m : 5*m : 5*m]
	g.Res = f[5*m : 6*m : 6*m]
	g.X = f[6*m : 7*m : 7*m]
	g.Y = f[7*m : 8*m : 8*m]
}

// Scratch holds the CSR adjacency buffers used while orienting the Steiner
// tree. Its owner keeps it across rebuilds (one per worker), so a warm
// scratch makes Rebuild allocation-free. The zero value is ready.
type Scratch struct {
	off, cur, adj []int32
}

// Rebuild roots the Steiner tree st at the node carrying the driver pin and
// re-extracts the RC tree into t's windows, which must have room for
// st.NumNodes() nodes (there is no fallback: a window too small panics),
// orienting the edges in the caller's scratch s. pinCap[i] is the attached
// pin capacitance of Steiner node i (input pin caps at sink nodes, 0 at
// the driver and pure Steiner nodes); rPerUnit/cPerUnit are wire RC
// densities per DBU. t keeps st's X/Y windows for later geometry refreshes
// and gradients.
//
//dtgp:hotpath
//dtgp:index root=rcnode pinCap=rcnode
func (t *Tree) Rebuild(st *rsmt.Tree, root int32, pinCap []float64, rPerUnit, cPerUnit float64, s *Scratch) error {
	n := st.NumNodes()
	if n == 0 {
		return fmt.Errorf("rctree: empty Steiner tree")
	}
	if int(root) >= n || root < 0 {
		return fmt.Errorf("rctree: root %d out of range (%d nodes)", root, n)
	}
	if len(pinCap) != n {
		return fmt.Errorf("rctree: pinCap has %d entries, want %d", len(pinCap), n)
	}
	t.N = n
	t.Root = root
	t.X, t.Y = st.X, st.Y
	t.RPerUnit = rPerUnit
	t.CPerUnit = cPerUnit
	t.Parent = t.Parent[:n]
	t.Order = t.Order[:n]
	t.Res = t.Res[:n]
	t.Cap = t.Cap[:n]
	t.Load = t.Load[:n]
	t.Delay = t.Delay[:n]
	t.LDelay = t.LDelay[:n]
	t.Beta = t.Beta[:n]
	t.Impulse = t.Impulse[:n]
	t.EdgeLen = t.EdgeLen[:n]
	for i := 0; i < n; i++ {
		t.Res[i] = 0
		t.EdgeLen[i] = 0
	}
	copy(t.Cap, pinCap)
	// CSR adjacency (neighbor order matches edge iteration order), then BFS
	// from root to orient edges; Order doubles as the BFS queue.
	if cap(s.off) < n+1 {
		s.off = make([]int32, n+1)
		s.cur = make([]int32, n+1)
	}
	off := s.off[:n+1]
	cur := s.cur[:n+1]
	for i := range off {
		off[i] = 0
	}
	for _, e := range st.Edges {
		off[e[0]+1]++
		off[e[1]+1]++
	}
	for i := 0; i < n; i++ {
		off[i+1] += off[i]
	}
	if cap(s.adj) < 2*len(st.Edges) {
		s.adj = make([]int32, 2*len(st.Edges))
	}
	adj := s.adj[:2*len(st.Edges)]
	copy(cur, off)
	for _, e := range st.Edges {
		adj[cur[e[0]]] = e[1]
		cur[e[0]]++
		adj[cur[e[1]]] = e[0]
		cur[e[1]]++
	}
	for i := range t.Parent {
		t.Parent[i] = -2 // unvisited
	}
	t.Parent[root] = -1
	t.Order[0] = root
	tail := 1
	for qi := 0; qi < tail; qi++ {
		u := t.Order[qi]
		for _, v := range adj[off[u]:off[u+1]] {
			if t.Parent[v] != -2 {
				continue
			}
			t.Parent[v] = u
			length := math.Abs(st.X[u]-st.X[v]) + math.Abs(st.Y[u]-st.Y[v])
			t.EdgeLen[v] = length
			t.Res[v] = rPerUnit * length
			wc := cPerUnit * length / 2
			t.Cap[u] += wc
			t.Cap[v] += wc
			t.Order[tail] = v
			tail++
		}
	}
	if tail != n {
		return fmt.Errorf("rctree: Steiner tree is disconnected (%d of %d nodes reachable)", tail, n)
	}
	return nil
}

// RefreshGeometry recomputes edge RC after node coordinates changed but the
// topology did not (the Steiner-reuse fast path, §3.6).
//
//dtgp:hotpath
func (t *Tree) RefreshGeometry() {
	// Reset caps to pin caps by subtracting old wire caps is error-prone;
	// rebuild from scratch: first remove all wire contributions.
	for _, u := range t.Order {
		if t.Parent[u] >= 0 {
			wc := t.CPerUnit * t.EdgeLen[u] / 2
			t.Cap[u] -= wc
			t.Cap[t.Parent[u]] -= wc
		}
	}
	for _, u := range t.Order {
		p := t.Parent[u]
		if p < 0 {
			continue
		}
		length := math.Abs(t.X[u]-t.X[p]) + math.Abs(t.Y[u]-t.Y[p])
		t.EdgeLen[u] = length
		t.Res[u] = t.RPerUnit * length
		wc := t.CPerUnit * length / 2
		t.Cap[u] += wc
		t.Cap[p] += wc
	}
}

// Forward runs the four Elmore DP passes (Eq. 7) and the impulse extraction
// (Eq. 7e).
//
//dtgp:hotpath
//dtgp:forward(elmore)
func (t *Tree) Forward() {
	// Pass 1 (bottom-up): Load(u) = Cap(u) + Σ_child Load(v).
	copy(t.Load, t.Cap)
	for i := len(t.Order) - 1; i >= 0; i-- {
		u := t.Order[i]
		if p := t.Parent[u]; p >= 0 {
			t.Load[p] += t.Load[u]
		}
	}
	// Pass 2 (top-down): Delay(u) = Delay(fa) + Res(fa→u)·Load(u).
	for _, u := range t.Order {
		if p := t.Parent[u]; p >= 0 {
			t.Delay[u] = t.Delay[p] + t.Res[u]*t.Load[u]
		} else {
			t.Delay[u] = 0
		}
	}
	// Pass 3 (bottom-up): LDelay(u) = Cap(u)·Delay(u) + Σ_child LDelay(v).
	for i := range t.LDelay {
		t.LDelay[i] = t.Cap[i] * t.Delay[i]
	}
	for i := len(t.Order) - 1; i >= 0; i-- {
		u := t.Order[i]
		if p := t.Parent[u]; p >= 0 {
			t.LDelay[p] += t.LDelay[u]
		}
	}
	// Pass 4 (top-down): Beta(u) = Beta(fa) + Res(fa→u)·LDelay(u).
	for _, u := range t.Order {
		if p := t.Parent[u]; p >= 0 {
			t.Beta[u] = t.Beta[p] + t.Res[u]*t.LDelay[u]
		} else {
			t.Beta[u] = 0
		}
	}
	// Impulse (Eq. 7e), clamped against tiny negative round-off.
	for i := range t.Impulse {
		v := 2*t.Beta[i] - t.Delay[i]*t.Delay[i]
		if v < 0 {
			v = 0
		}
		t.Impulse[i] = math.Sqrt(v)
	}
}

// BackwardInto runs the reverse sweep (Eq. 8) into a caller-owned Grad,
// given upstream gradients:
//
//   - gradDelay[u]     = ∂f/∂Delay(u) arriving from arrival-time backprop
//     (Eq. 10b), non-zero at sink nodes;
//   - gradImpulseSq[u] = ∂f/∂Impulse²(u) from slew backprop (Eq. 10d);
//   - gradLoadRoot     = ∂f/∂Load(root) from the driving cell's LUT load
//     input (Eq. 12e).
//
// Two corrections to the paper's printed Eq. 8 (confirmed against central
// finite differences in the test suite):
//
//   - Eq. 8c: Impulse² = 2·Beta − Delay², so the Impulse term of ∇Delay is
//     −2·Delay·∇Impulse², not +2·Delay·∇Impulse².
//   - Eq. 8d/8f: the recursive terms are ∇Load(fa(u)) and
//     LDelay(u)·∇Beta(u) — the printed ∇Delay(fa(u)) / Beta(u)·∇LDelay(u)
//     do not follow from Eq. 7 by the chain rule.
//
// g must have been pre-sized for at least t.N nodes (Grad.PreSize); its
// columns are resliced to t.N, so one Grad serves trees of every size up
// to its capacity and a sweep allocates nothing.
//
//dtgp:hotpath
//dtgp:backward(elmore)
//dtgp:index gradDelay=rcnode gradImpulseSq=rcnode
func (t *Tree) BackwardInto(g *Grad, gradDelay, gradImpulseSq []float64, gradLoadRoot float64) {
	n := t.N
	g.Beta = g.Beta[:n]
	g.LDelay = g.LDelay[:n]
	g.Delay = g.Delay[:n]
	g.Load = g.Load[:n]
	g.Cap = g.Cap[:n]
	g.Res = g.Res[:n]
	g.X = g.X[:n]
	g.Y = g.Y[:n]
	copy(g.Delay, gradDelay)
	// Beta, LDelay, Load and Cap are fully overwritten below; Res is only
	// written for non-root nodes and X/Y accumulate, so clear those.
	g.Res[t.Root] = 0
	for i := 0; i < n; i++ {
		g.X[i] = 0
		g.Y[i] = 0
	}
	// Reverse pass 1 (bottom-up, mirrors forward pass 4):
	// ∇Beta(u) = 2·∇Impulse²(u) + Σ_child ∇Beta(v).
	for i := range g.Beta {
		g.Beta[i] = 2 * gradImpulseSq[i]
	}
	for i := len(t.Order) - 1; i >= 0; i-- {
		u := t.Order[i]
		if p := t.Parent[u]; p >= 0 {
			g.Beta[p] += g.Beta[u]
		}
	}
	// Reverse pass 2 (top-down, mirrors forward pass 3):
	// ∇LDelay(u) = Res(fa→u)·∇Beta(u) + ∇LDelay(fa(u)).
	for _, u := range t.Order {
		g.LDelay[u] = t.Res[u] * g.Beta[u]
		if p := t.Parent[u]; p >= 0 {
			g.LDelay[u] += g.LDelay[p]
		}
	}
	// Reverse pass 3 (bottom-up, mirrors forward pass 2):
	// ∇Delay(u) = [seed] + Cap(u)·∇LDelay(u) − 2·Delay(u)·∇Impulse²(u)
	//             + Σ_child ∇Delay(v).
	for i := 0; i < n; i++ {
		g.Delay[i] += t.Cap[i]*g.LDelay[i] - 2*t.Delay[i]*gradImpulseSq[i]
	}
	for i := len(t.Order) - 1; i >= 0; i-- {
		u := t.Order[i]
		if p := t.Parent[u]; p >= 0 {
			g.Delay[p] += g.Delay[u]
		}
	}
	// Root has Delay ≡ 0 regardless of parameters; its accumulated entry
	// is not a real derivative, and nothing downstream consumes it.
	g.Delay[t.Root] = 0
	// Reverse pass 4 (top-down, mirrors forward pass 1):
	// ∇Load(u) = Res(fa→u)·∇Delay(u) + ∇Load(fa(u)).
	for _, u := range t.Order {
		g.Load[u] = t.Res[u] * g.Delay[u]
		if p := t.Parent[u]; p >= 0 {
			g.Load[u] += g.Load[p]
		} else {
			g.Load[u] += gradLoadRoot
		}
	}
	// Leaf equations:
	// ∇Cap(u) = ∇Load(u) + Delay(u)·∇LDelay(u)            (Eq. 8e)
	// ∇Res(fa→u) = Load(u)·∇Delay(u) + LDelay(u)·∇Beta(u)  (Eq. 8f corrected)
	for i := 0; i < n; i++ {
		g.Cap[i] = g.Load[i] + t.Delay[i]*g.LDelay[i]
	}
	for _, u := range t.Order {
		if t.Parent[u] >= 0 {
			g.Res[u] = t.Load[u]*g.Delay[u] + t.LDelay[u]*g.Beta[u]
		}
	}
	t.geometryGrad(g)
}

// geometryGrad maps ∇Res / ∇Cap onto node coordinates. Each tree edge e =
// (p→u) has Res = r·L(e) and contributes wire cap c·L(e)/2 to both
// endpoints, with L = |Δx| + |Δy|:
//
//	∂f/∂L(e) = r·∇Res(e) + (c/2)·(∇Cap(p) + ∇Cap(u))
//	∂L/∂x_u = sign(x_u − x_p), ∂L/∂x_p = −sign(x_u − x_p)   (same for y)
//
//dtgp:hotpath
func (t *Tree) geometryGrad(g *Grad) {
	for _, u := range t.Order {
		p := t.Parent[u]
		if p < 0 {
			continue
		}
		dLdf := t.RPerUnit*g.Res[u] + t.CPerUnit/2*(g.Cap[p]+g.Cap[u])
		sx := sign(t.X[u] - t.X[p])
		sy := sign(t.Y[u] - t.Y[p])
		g.X[u] += dLdf * sx
		g.X[p] -= dLdf * sx
		g.Y[u] += dLdf * sy
		g.Y[p] -= dLdf * sy
	}
}

//dtgp:hotpath
func sign(v float64) float64 {
	switch {
	case v > 0:
		return 1
	case v < 0:
		return -1
	default:
		return 0
	}
}
