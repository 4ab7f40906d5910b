package timing

import (
	"math"

	"dtgp/internal/parallel"
	"dtgp/internal/rctree"
	"dtgp/internal/rsmt"
)

// NetState is the per-net interconnect model: the Steiner tree topology and
// the RC tree with Elmore results (§3.3 step 2). It is shared between the
// exact STA engine and the differentiable timer.
type NetState struct {
	Net int32 //dtgp:index domain=net
	// Tree is the Steiner topology; nil for clock, degenerate (<2 pins)
	// and undriven nets.
	//dtgp:cached by=buildNetStateInto
	Tree *rsmt.Tree
	// RC is the rooted RC tree with Elmore state; nil when Tree is nil.
	//dtgp:cached by=buildNetStateInto
	RC *rctree.Tree
	// Node[k] is the Steiner-tree node of net pin k (net.Pins[k]); the
	// driver's node is the RC root.
	//dtgp:cached by=buildNetStateInto
	Node []int32 //dtgp:index domain=npin elem=snode
	// PinOfNode[j] maps tree node j back to the design pin id, or -1 for
	// Steiner points.
	//dtgp:cached by=buildNetStateInto
	PinOfNode []int32 //dtgp:index domain=snode elem=pin
	// px, py are scratch coordinate buffers reused by RefreshNetState so
	// the steady-state geometry update is allocation-free; pinCap is the
	// per-node capacitance scratch for RC re-extraction. Between refreshes
	// px/py double as the reference geometry of the displacement-driven
	// dirty test (NetMoved): they hold the pin coordinates the current
	// Steiner/RC state was extracted from.
	//dtgp:cached by=buildNetStateInto,RefreshNetState
	px, py, pinCap []float64
	// TopoHP is the pin bounding-box half-perimeter at the last topology
	// build; RefreshNetStateLazy compares it against the current bbox to
	// decide when sliding the stored Steiner points is no longer a faithful
	// model and the topology must be re-extracted.
	//dtgp:cached by=buildNetStateInto
	TopoHP float64
	// fromBuild records that the current Steiner/RC state is exactly
	// buildNetStateInto applied to the px/py snapshot (a full topology
	// extraction, not a geometry slide). Extraction is deterministic, so a
	// net with fromBuild set whose pins are bitwise unchanged since the
	// snapshot would rebuild to the identical state — RebuildNetStateMoved
	// exploits this to skip it.
	//dtgp:cached by=buildNetStateInto,RefreshNetState
	fromBuild bool
}

// SinkDelay returns the Elmore delay from the driver to net pin k.
//
//dtgp:hotpath
//dtgp:index k=npin
func (ns *NetState) SinkDelay(k int) float64 { return ns.RC.Delay[ns.Node[k]] }

// SinkImpulse returns the slew impulse at net pin k.
//
//dtgp:hotpath
//dtgp:index k=npin
func (ns *NetState) SinkImpulse(k int) float64 { return ns.RC.Impulse[ns.Node[k]] }

// DriverLoad returns the total capacitive load seen by the driver.
//
//dtgp:hotpath
func (ns *NetState) DriverLoad() float64 { return ns.RC.Load[ns.RC.Root] }

// BuildScratch is one worker's Steiner and RC construction scratch. An
// engine that re-extracts nets owns one per pool worker (NewBuildScratch)
// and hands a kernel the entry of the worker id the pool passes it, so
// scratch is never shared between concurrent builds or between engines,
// and it stays warm for the engine's lifetime.
type BuildScratch struct {
	steiner rsmt.Scratch
	rc      rctree.Scratch
}

// NewBuildScratch returns one BuildScratch per worker of the default pool,
// indexed by the worker id parallel.ForGuided passes its kernels.
func NewBuildScratch() []BuildScratch {
	return make([]BuildScratch, parallel.Workers())
}

// BuildNetStates constructs Steiner and RC trees for every timed net, in
// parallel. This is the "FLUTE + Elmore" stage of Fig. 3/7; the forward
// Elmore passes are left to the caller (ForwardAll) so that the reuse path
// can skip tree construction. Net sizes follow a power law, so the work is
// distributed with guided chunking rather than static splits.
func BuildNetStates(g *Graph) []NetState {
	states := make([]NetState, len(g.D.Nets))
	RebuildNetStates(g, states, NewBuildScratch())
	return states
}

// RebuildNetStates re-extracts every net's Steiner and RC trees in place,
// reusing each NetState's buffers (coordinate scratch, node maps, RC
// storage) and the per-worker scratch (one entry per pool worker, see
// NewBuildScratch). The periodic topology rebuild is allocation-free once
// warm. states must have one entry per design net.
//
//dtgp:hotpath
func RebuildNetStates(g *Graph, states []NetState, scratch []BuildScratch) {
	parallel.ForGuided(len(states), 8, parallel.CostHeavy, func(w, lo, hi int) {
		for ni := lo; ni < hi; ni++ {
			buildNetStateInto(g, int32(ni), &states[ni], &scratch[w])
		}
	})
}

//dtgp:hotpath
//dtgp:index ni=net
func buildNetStateInto(g *Graph, ni int32, ns *NetState, s *BuildScratch) {
	d := g.D
	ns.Net = ni
	ns.fromBuild = true
	if g.MaxTreeNodes(ni) == 0 {
		ns.Tree, ns.RC = nil, nil
		return
	}
	net := &d.Nets[ni]
	np := len(net.Pins)
	if cap(ns.px) < np {
		ns.px = make([]float64, np)
		ns.py = make([]float64, np)
	}
	px, py := ns.px[:np], ns.py[:np]
	ns.px, ns.py = px, py
	rootIdx := int32(-1)
	minX, minY := math.Inf(1), math.Inf(1)
	maxX, maxY := math.Inf(-1), math.Inf(-1)
	for k, pid := range net.Pins {
		pos := d.PinPos(pid)
		px[k], py[k] = pos.X, pos.Y
		minX, maxX = math.Min(minX, pos.X), math.Max(maxX, pos.X)
		minY, maxY = math.Min(minY, pos.Y), math.Max(maxY, pos.Y)
		if pid == net.Driver {
			rootIdx = int32(k)
		}
	}
	ns.TopoHP = (maxX - minX) + (maxY - minY)
	if ns.Tree == nil {
		ns.Tree = &rsmt.Tree{}
	}
	tree := rsmt.BuildInto(ns.Tree, px, py, &s.steiner)
	nn := tree.NumNodes()
	if cap(ns.pinCap) < nn {
		ns.pinCap = make([]float64, nn)
		ns.PinOfNode = make([]int32, nn)
	}
	pinCap := ns.pinCap[:nn]
	pinOfNode := ns.PinOfNode[:nn]
	ns.pinCap, ns.PinOfNode = pinCap, pinOfNode
	for j := 0; j < nn; j++ {
		pinCap[j] = 0
		pinOfNode[j] = -1
	}
	if cap(ns.Node) < np {
		ns.Node = make([]int32, np)
	}
	node := ns.Node[:np]
	ns.Node = node
	for k, pid := range net.Pins {
		node[k] = int32(k) //dtgp:allow(indexspace) rsmt keeps pins as nodes 0..NumPins-1 in order, so a net-pin position IS its Steiner node id
		pinOfNode[k] = pid //dtgp:allow(indexspace) same pin-position/node-id embedding as the line above
		if pid != net.Driver {
			pinCap[k] = g.SinkCap[pid]
		}
	}
	if ns.RC == nil {
		ns.RC = &rctree.Tree{}
	}
	if err := ns.RC.Rebuild(tree, rootIdx, pinCap, d.Lib.WireResPerDBU, d.Lib.WireCapPerDBU, &s.rc); err != nil {
		// A disconnected Steiner tree cannot happen by construction; treat
		// defensively as an untimed net.
		ns.Tree, ns.RC = nil, nil
	}
}

// RebuildNetStateMoved is the per-net fence variant of RebuildNetStates: it
// re-extracts ns only if its state could differ from a fresh build — its
// pins moved bitwise since the px/py snapshot, or its topology was slid
// (RefreshNetState) rather than rebuilt since then. A skipped net already
// holds exactly the state a rebuild would produce (extraction is
// deterministic), so a fence over every net is bit-identical to
// RebuildNetStates. A rebuilt net also gets its Elmore forward pass here; a
// skipped one keeps its (identical) forward results, so the caller must NOT
// run another forward sweep. s is the calling worker's scratch.
//
//dtgp:hotpath
func RebuildNetStateMoved(g *Graph, ns *NetState, s *BuildScratch) {
	// Tree == nil nets always fall through: NetMoved cannot see their
	// movement and a defensively-untimed net could become timeable at new
	// geometry. buildNetStateInto early-returns for the structurally
	// untimed ones, so the retry is cheap.
	if ns.fromBuild && ns.Tree != nil && !NetMoved(g, ns, 0) {
		return
	}
	buildNetStateInto(g, ns.Net, ns, s)
	if ns.RC != nil {
		ns.RC.Forward()
	}
}

// RefreshNetState updates one net's node coordinates and RC values from
// current pin positions without rebuilding Steiner topology (§3.6: reuse
// the stored Steiner points, moving them along with their attributed pins).
// Allocation-free after the first call on a given NetState.
//
//dtgp:hotpath
func RefreshNetState(g *Graph, ns *NetState) {
	if ns.Tree == nil {
		return
	}
	ns.fromBuild = false
	d := g.D
	net := &d.Nets[ns.Net]
	if cap(ns.px) < len(net.Pins) {
		ns.px = make([]float64, len(net.Pins))
		ns.py = make([]float64, len(net.Pins))
	}
	px := ns.px[:len(net.Pins)]
	py := ns.py[:len(net.Pins)]
	for k, pid := range net.Pins {
		pos := d.PinPos(pid)
		px[k], py[k] = pos.X, pos.Y
	}
	ns.Tree.UpdateFromPins(px, py)
	ns.RC.RefreshGeometry()
}

// NetMoved reports whether any pin of ns has moved beyond eps (Chebyshev
// distance, in DBU) since the net's state was last extracted or refreshed.
// The reference geometry is the px/py snapshot that the current Steiner/RC
// state was built from, so no extra per-net memory is needed for the dirty
// test. Untimed nets (Tree == nil) never report movement. With eps == 0 any
// bitwise coordinate change is movement.
//
//dtgp:hotpath
func NetMoved(g *Graph, ns *NetState, eps float64) bool {
	if ns.Tree == nil {
		return false
	}
	d := g.D
	net := &d.Nets[ns.Net]
	px, py := ns.px, ns.py
	for k, pid := range net.Pins {
		pos := d.PinPos(pid)
		if dx := pos.X - px[k]; dx > eps || dx < -eps {
			return true
		}
		if dy := pos.Y - py[k]; dy > eps || dy < -eps {
			return true
		}
	}
	return false
}

// RefreshNetStateLazy refreshes one net from current pin positions, choosing
// between the cheap geometry slide (RefreshNetState, §3.6 Steiner reuse) and
// a full topology re-extraction. The stored Steiner points stay a faithful
// model while the pin bounding box they were derived from keeps roughly its
// shape, so the half-perimeter is used as the distortion proxy: when the
// current bbox half-perimeter deviates from TopoHP (the value at the last
// build) by more than distortionLimit relatively, the topology is rebuilt.
// distortionLimit = +Inf disables per-net rebuilds (geometry slide only).
// A rebuild runs in s, the calling worker's scratch. Allocation-free after
// the first call on a given NetState.
//
//dtgp:hotpath
func RefreshNetStateLazy(g *Graph, ns *NetState, distortionLimit float64, s *BuildScratch) {
	if ns.Tree == nil {
		return
	}
	d := g.D
	net := &d.Nets[ns.Net]
	minX, minY := math.Inf(1), math.Inf(1)
	maxX, maxY := math.Inf(-1), math.Inf(-1)
	for _, pid := range net.Pins {
		pos := d.PinPos(pid)
		minX, maxX = math.Min(minX, pos.X), math.Max(maxX, pos.X)
		minY, maxY = math.Min(minY, pos.Y), math.Max(maxY, pos.Y)
	}
	hp := (maxX - minX) + (maxY - minY)
	if math.Abs(hp-ns.TopoHP) > distortionLimit*ns.TopoHP {
		// Note: a degenerate reference bbox (TopoHP == 0) rebuilds on any
		// growth, and distortionLimit = +Inf never rebuilds (Inf*0 = NaN and
		// any comparison with NaN is false, which is the wanted behaviour).
		buildNetStateInto(g, ns.Net, ns, s)
		return
	}
	RefreshNetState(g, ns)
}

// ForwardAll runs the Elmore forward passes on every net, in parallel. Its
// batch adjoint is the core timer's elmoreBackward sweep.
//
//dtgp:hotpath
//dtgp:forward(elmore-batch)
func ForwardAll(states []NetState) {
	parallel.ForGuided(len(states), 16, parallel.CostDefault, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			if states[i].RC != nil {
				states[i].RC.Forward()
			}
		}
	})
}
