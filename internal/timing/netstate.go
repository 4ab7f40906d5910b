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
	//dtgp:cached by=buildNetStateInto,extractNetState
	Tree *rsmt.Tree
	// RC is the rooted RC tree with Elmore state; nil when Tree is nil.
	//dtgp:cached by=buildNetStateInto,extractNetState
	RC *rctree.Tree
	// px, py are the pin coordinate snapshot: snapshotPins writes each pin
	// into them once per build or refresh, and the extraction or the
	// geometry slide reads them, so the steady-state update is
	// allocation-free; pinCap is the per-node capacitance scratch for RC
	// re-extraction. Between refreshes px/py double as the reference
	// geometry of the displacement-driven dirty test (NetMoved): they hold
	// the pin coordinates the current Steiner/RC state was extracted from.
	//dtgp:cached by=buildNetStateInto,extractNetState
	px, py, pinCap []float64
	// TopoHP is the pin bounding-box half-perimeter at the last topology
	// build; RefreshNetStateLazy compares it against the current bbox to
	// decide when sliding the stored Steiner points is no longer a faithful
	// model and the topology must be re-extracted.
	//dtgp:cached by=extractNetState
	TopoHP float64
}

// Wires is the pin-indexed view of the interconnect results that the level
// sweeps of both timing engines read (§3.3): each net's Elmore results land
// at its own pins, so a kernel reads one column entry instead of walking
// from the pin through its NetState and RC tree. ForwardNet is the one
// writer; it runs right after each Elmore forward pass.
type Wires struct {
	// Driver[p] is the driver of the timed net that pin p sinks, or -1
	// (p is a driver, sinks an untimed net, or is on no net). A timed
	// net's sinks are exactly its non-driver pins.
	//dtgp:cached by=ForwardNet
	Driver []int32 //dtgp:index domain=pin elem=pin
	// Delay[p] and ImpulseSq[p] are the Elmore delay and the squared slew
	// impulse from the driver to sink p (Eq. 7), valid where Driver[p] >= 0.
	//dtgp:cached by=ForwardNet
	Delay, ImpulseSq []float64 //dtgp:index domain=pin
	// Load[p] is the total capacitance the net driven by p presents, 0 when
	// p drives no timed net.
	//dtgp:cached by=ForwardNet
	Load []float64 //dtgp:index domain=pin
}

// NewWires wraps four zeroed columns of one entry per design pin (an arena
// carve or heap slices) as a view in which no pin sinks a timed net yet.
func NewWires(driver []int32, delay, impulseSq, load []float64) Wires {
	for i := range driver {
		driver[i] = -1
	}
	return Wires{Driver: driver, Delay: delay, ImpulseSq: impulseSq, Load: load}
}

// ForwardNet runs net ns's Elmore forward pass (Eq. 7) and publishes the
// results at the net's pins in w. An untimed net (no RC tree) is published
// as Driver -1 at its pins and Load 0 at its driver, so readers skip it.
// Each net writes only its own pins, so nets publish concurrently.
//
//dtgp:hotpath
func ForwardNet(g *Graph, ns *NetState, w *Wires) {
	net := &g.D.Nets[ns.Net]
	rc := ns.RC
	if rc == nil {
		for _, pid := range net.Pins {
			w.Driver[pid] = -1
		}
		if net.Driver >= 0 {
			w.Load[net.Driver] = 0
		}
		return
	}
	rc.Forward()
	for k, pid := range net.Pins {
		if pid == net.Driver {
			w.Driver[pid] = -1
			w.Load[pid] = rc.Load[rc.Root]
			continue
		}
		w.Driver[pid] = net.Driver
		w.Delay[pid], w.ImpulseSq[pid] = rc.Delay[k], rc.Impulse[k]*rc.Impulse[k] //dtgp:allow(indexspace) rsmt keeps pins as nodes 0..NumPins-1 in order, so net pin k IS Steiner/RC node k
	}
}

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
// Elmore passes are left to the caller (ForwardNet) so that the reuse path
// can skip tree construction. Net sizes follow a power law, so the work is
// distributed with guided chunking rather than static splits.
func BuildNetStates(g *Graph) []NetState {
	states := make([]NetState, len(g.D.Nets))
	RebuildNetStates(g, states, NewBuildScratch())
	return states
}

// RebuildNetStates re-extracts every net's Steiner and RC trees in place,
// from the cells' current positions (it refills the design's pin-position
// column first), reusing each NetState's buffers (coordinate scratch, pin
// caps, RC storage) and the per-worker scratch (one entry per pool worker,
// see NewBuildScratch). The periodic topology rebuild is allocation-free
// once warm. states must have one entry per design net.
//
//dtgp:hotpath
func RebuildNetStates(g *Graph, states []NetState, scratch []BuildScratch) {
	g.D.FillPinPositions()
	parallel.ForGuided(len(states), 8, parallel.CostHeavy, func(w, lo, hi int) {
		for ni := lo; ni < hi; ni++ {
			buildNetStateInto(g, int32(ni), &states[ni], &scratch[w])
		}
	})
}

//dtgp:hotpath
//dtgp:index ni=net
func buildNetStateInto(g *Graph, ni int32, ns *NetState, s *BuildScratch) {
	ns.Net = ni
	if g.MaxTreeNodes(ni) == 0 {
		ns.Tree, ns.RC = nil, nil
		return
	}
	np := len(g.D.Nets[ni].Pins)
	if cap(ns.px) < np {
		ns.px = make([]float64, np)
		ns.py = make([]float64, np)
	}
	ns.px, ns.py = ns.px[:np], ns.py[:np]
	extractNetState(g, ns, snapshotPins(g, ns), s)
}

// snapshotPins copies each pin of ns's net from the design's pin-position
// column into the px/py snapshot, which must hold one entry per pin, and
// returns the half-perimeter of the pins' bounding box.
//
//dtgp:hotpath
func snapshotPins(g *Graph, ns *NetState) float64 {
	d := g.D
	col := d.PinPositions()
	px, py := ns.px, ns.py
	minX, minY := math.Inf(1), math.Inf(1)
	maxX, maxY := math.Inf(-1), math.Inf(-1)
	for k, pid := range d.Nets[ns.Net].Pins {
		pos := col[pid]
		px[k], py[k] = pos.X, pos.Y
		minX, maxX = min(minX, pos.X), max(maxX, pos.X)
		minY, maxY = min(minY, pos.Y), max(maxY, pos.Y)
	}
	return (maxX - minX) + (maxY - minY)
}

// extractNetState re-extracts ns's Steiner and RC trees from its px/py
// snapshot, whose bounding-box half-perimeter is hp, in worker scratch s.
//
//dtgp:hotpath
func extractNetState(g *Graph, ns *NetState, hp float64, s *BuildScratch) {
	d := g.D
	net := &d.Nets[ns.Net]
	ns.TopoHP = hp
	if ns.Tree == nil {
		ns.Tree = &rsmt.Tree{}
	}
	tree := rsmt.BuildInto(ns.Tree, ns.px, ns.py, &s.steiner)
	nn := tree.NumNodes()
	if cap(ns.pinCap) < nn {
		ns.pinCap = make([]float64, nn)
	}
	pinCap := ns.pinCap[:nn]
	ns.pinCap = pinCap
	for j := range pinCap {
		pinCap[j] = 0
	}
	// rsmt keeps the pins as nodes 0..np-1 in order, so net pin k is node k.
	rootIdx := int32(-1)
	for k, pid := range net.Pins {
		if pid == net.Driver {
			rootIdx = int32(k)
		} else {
			pinCap[k] = g.SinkCap[pid]
		}
	}
	if ns.RC == nil {
		ns.RC = &rctree.Tree{}
	}
	if err := ns.RC.Rebuild(tree, rootIdx, pinCap, d.Lib.WireResPerDBU, d.Lib.WireCapPerDBU, &s.rc); err != nil {
		// A non-finite pin coordinate disconnects the Steiner tree of a net
		// of 3 or more pins (no NaN distance wins rsmt's spanning-tree
		// search). The net stays untimed until a rebuild at finite
		// coordinates succeeds.
		ns.Tree, ns.RC = nil, nil
	}
}

// RebuildNet is the per-net fence kernel: it re-extracts ns's Steiner and
// RC trees from the design's pin-position column, which its caller fills,
// runs its Elmore forward pass and
// publishes it in w, in s, the calling worker's scratch. An untimed net is
// retried too, since it could become timeable at new geometry;
// buildNetStateInto returns at once for the structurally untimed ones.
//
//dtgp:hotpath
func RebuildNet(g *Graph, ns *NetState, w *Wires, s *BuildScratch) {
	buildNetStateInto(g, ns.Net, ns, s)
	ForwardNet(g, ns, w)
}

// NetMoved reports whether any pin of ns has moved beyond eps (Chebyshev
// distance, in DBU) since the net's state was last extracted or refreshed.
// It reads the pins from the design's pin-position column, which its caller
// fills. The reference geometry is the px/py snapshot that the current
// Steiner/RC state was built from, so no extra per-net memory is needed for
// the dirty test. Untimed nets (Tree == nil) never report movement. With
// eps == 0 any bitwise coordinate change is movement.
//
//dtgp:hotpath
func NetMoved(g *Graph, ns *NetState, eps float64) bool {
	if ns.Tree == nil {
		return false
	}
	d := g.D
	col := d.PinPositions()
	px, py := ns.px, ns.py
	for k, pid := range d.Nets[ns.Net].Pins {
		pos := col[pid]
		if dx := pos.X - px[k]; dx > eps || dx < -eps {
			return true
		}
		if dy := pos.Y - py[k]; dy > eps || dy < -eps {
			return true
		}
	}
	return false
}

// RefreshNetStateLazy refreshes one net from the design's pin-position
// column, which its caller fills, choosing between the cheap geometry slide
// (§3.6 Steiner reuse: the stored Steiner points move along with their
// attributed pins, the topology stays) and a full topology re-extraction.
// Either way each pin is gathered once, into the px/py snapshot, while the
// bounding box is taken. The stored Steiner
// points stay a faithful model while the pin bounding box they were derived
// from keeps roughly its shape, so the half-perimeter is used as the
// distortion proxy: when the current bbox half-perimeter deviates from
// TopoHP (the value at the last build) by more than distortionLimit
// relatively, the topology is rebuilt. distortionLimit = +Inf disables
// per-net rebuilds (geometry slide only). A rebuild runs in s, the calling
// worker's scratch. Allocation-free after the first build of the NetState.
//
//dtgp:hotpath
func RefreshNetStateLazy(g *Graph, ns *NetState, distortionLimit float64, s *BuildScratch) {
	if ns.Tree == nil {
		return
	}
	hp := snapshotPins(g, ns)
	if math.Abs(hp-ns.TopoHP) > distortionLimit*ns.TopoHP {
		// Note: a degenerate reference bbox (TopoHP == 0) rebuilds on any
		// growth, and distortionLimit = +Inf never rebuilds (Inf*0 = NaN and
		// any comparison with NaN is false, which is the wanted behaviour).
		extractNetState(g, ns, hp, s)
		return
	}
	ns.Tree.UpdateFromPins(ns.px, ns.py)
	ns.RC.RefreshGeometry()
}

// ForwardAll runs the Elmore forward passes on every net, in parallel, and
// publishes them in w (ForwardNet). Its batch adjoint is the core timer's
// elmoreBackward sweep. It is kept out of line, so that its one dispatch
// closure per call stays an escape of ForwardAll in hotalloc.allow instead
// of moving into each caller it would be inlined into (the core timer's
// steady-state refreshNets among them).
//
//go:noinline
//dtgp:hotpath
//dtgp:forward(elmore-batch)
func ForwardAll(g *Graph, states []NetState, w *Wires) {
	parallel.ForGuided(len(states), 16, parallel.CostDefault, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			ForwardNet(g, &states[i], w)
		}
	})
}
