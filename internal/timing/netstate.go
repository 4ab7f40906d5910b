package timing

import (
	"math"

	"dtgp/internal/arena"
	"dtgp/internal/parallel"
	"dtgp/internal/rctree"
	"dtgp/internal/rsmt"
)

// NetStates is the interconnect model of every net (§3.3 step 2): the
// Steiner tree topology and the RC tree with Elmore results, shared between
// the exact STA engine and the differentiable timer. It holds no per-net
// object: it is a set of net-indexed columns, per-net scalars plus node
// columns in which net ni owns the window [off[ni], off[ni+1]) of
// MaxTreeNodes(ni) entries, room for any tree the net can get. rsmt and
// rctree work on views of a net's windows (Steiner, RC), which a worker
// keeps in its BuildScratch and points at each net it works on.
type NetStates struct {
	// off is the node-window prefix sum (NodeOffsets); the differentiable
	// timer's Fig. 4 slab shares it.
	off []int32 //dtgp:index domain=net
	// n[ni] is the node count of net ni's tree (its pins first, then its
	// Steiner points), 0 when the net has none: a clock, degenerate or
	// undriven net, or one whose last extraction failed.
	//dtgp:cached by=buildNetStateInto,extractNetState
	n []int32 //dtgp:index domain=net
	// root[ni] is the driver's node, its position in the net's pin list
	// (-1 when the driver is not listed, which fails the extraction).
	root []int32 //dtgp:index domain=net
	// topoHP[ni] is the pin bounding-box half-perimeter at the last
	// topology build; RefreshNetStateLazy compares it against the current
	// bbox to decide when sliding the stored Steiner points is no longer a
	// faithful model and the topology must be re-extracted.
	//dtgp:cached by=extractNetState
	topoHP []float64 //dtgp:index domain=net

	// The Steiner node columns (rsmt.Tree). The pin nodes of a window,
	// the first len(Pins) entries of x and y, are also the net's pin
	// coordinate snapshot: snapshotPins writes each pin there once per
	// build or refresh, the extraction or the geometry slide reads them,
	// and between refreshes they are the reference geometry of the
	// displacement-driven dirty test (NetMoved), the pin coordinates the
	// current Steiner/RC state was extracted from.
	//dtgp:cached by=snapshotPins,extractNetState,RefreshNetStateLazy
	x, y []float64
	//dtgp:cached by=extractNetState
	xPin, yPin []int32
	// The RC node columns (rctree.Tree).
	//dtgp:cached by=extractNetState
	parent, order []int32
	//dtgp:cached by=extractNetState,RefreshNetStateLazy,ForwardNet
	res, cap, load, delay, lDelay, beta, impulse, edgeLen []float64
	// rPerUnit and cPerUnit are the library's wire RC densities per DBU.
	rPerUnit, cPerUnit float64
}

// MaxTreeNodes bounds the Steiner-tree node count of net ni: rsmt.MaxNodes
// of its pins, or 0 for a net that cannot carry a tree (a clock net, an
// undriven net, or one with fewer than 2 pins). A window of this many
// nodes holds any tree the net can get, so no rebuild ever grows one.
//
//dtgp:index ni=net return=snode
func (g *Graph) MaxTreeNodes(ni int32) int {
	net := &g.D.Nets[ni]
	if g.IsClockNet[ni] || net.Driver < 0 || len(net.Pins) < 2 {
		return 0
	}
	return rsmt.MaxNodes(len(net.Pins))
}

// NodeOffsets returns the node windows of g's nets: net ni's window is
// [off[ni], off[ni+1]), MaxTreeNodes(ni) entries. It is carved from a, or
// made on the GC heap when a is nil.
func (g *Graph) NodeOffsets(a *arena.Arena) []int32 {
	off := carve[int32](a, len(g.D.Nets)+1)
	for ni := range g.D.Nets {
		off[ni+1] = off[ni] + int32(g.MaxTreeNodes(int32(ni)))
	}
	return off
}

// carve returns n zeroed entries carved from a, or made on the GC heap when
// a is nil (the exact engine's net states).
func carve[T arena.Plain](a *arena.Arena, n int) []T {
	if a == nil {
		return make([]T, n)
	}
	return arena.Make[T](a, n)
}

// NewNetStates returns the net states of g over the node windows off
// (NodeOffsets), with every column carved from a, or made on the GC heap
// when a is nil. No net has a tree until the first RebuildNetStates.
func NewNetStates(g *Graph, off []int32, a *arena.Arena) *NetStates {
	nNets, m := len(g.D.Nets), int(off[len(g.D.Nets)])
	s := &NetStates{
		off:      off,
		n:        carve[int32](a, nNets),
		root:     carve[int32](a, nNets),
		topoHP:   carve[float64](a, nNets),
		x:        carve[float64](a, m),
		y:        carve[float64](a, m),
		xPin:     carve[int32](a, m),
		yPin:     carve[int32](a, m),
		parent:   carve[int32](a, m),
		order:    carve[int32](a, m),
		res:      carve[float64](a, m),
		cap:      carve[float64](a, m),
		load:     carve[float64](a, m),
		delay:    carve[float64](a, m),
		lDelay:   carve[float64](a, m),
		beta:     carve[float64](a, m),
		impulse:  carve[float64](a, m),
		edgeLen:  carve[float64](a, m),
		rPerUnit: g.D.Lib.WireResPerDBU,
		cPerUnit: g.D.Lib.WireCapPerDBU,
	}
	for ni := range g.D.Nets {
		net := &g.D.Nets[ni]
		s.root[ni] = -1
		for k, pid := range net.Pins {
			if pid == net.Driver {
				s.root[ni] = int32(k)
			}
		}
	}
	return s
}

// Timed reports whether net ni has a Steiner/RC tree.
//
//dtgp:index ni=net
func (s *NetStates) Timed(ni int32) bool { return s.n[ni] > 0 }

// Steiner points t at net ni's Steiner tree: its node windows, of length
// the tree's node count and capacity the net's bound. Its Edges are nil:
// the edges live in the build scratch only until the RC extraction has
// oriented them. t is the caller's view, reused from net to net, so the
// view costs a few slice headers and no copy.
//
//dtgp:hotpath
//dtgp:index ni=net
func (s *NetStates) Steiner(g *Graph, ni int32, t *rsmt.Tree) {
	lo, hi := s.off[ni], s.off[ni+1]
	e := lo + s.n[ni]
	t.X, t.Y = s.x[lo:e:hi], s.y[lo:e:hi]
	t.XPin, t.YPin = s.xPin[lo:e:hi], s.yPin[lo:e:hi]
	t.Edges = nil
	t.NumPins = len(g.D.Nets[ni].Pins)
}

// RC points t at net ni's RC tree: its node windows, of length the tree's
// node count and capacity the net's bound. t is the caller's view, as in
// Steiner.
//
//dtgp:hotpath
//dtgp:index ni=net
func (s *NetStates) RC(ni int32, t *rctree.Tree) {
	lo, hi := s.off[ni], s.off[ni+1]
	e := lo + s.n[ni]
	t.N, t.Root = int(s.n[ni]), s.root[ni]
	t.Parent, t.Order = s.parent[lo:e:hi], s.order[lo:e:hi]
	t.Res, t.Cap, t.Load = s.res[lo:e:hi], s.cap[lo:e:hi], s.load[lo:e:hi]
	t.Delay, t.LDelay = s.delay[lo:e:hi], s.lDelay[lo:e:hi]
	t.Beta, t.Impulse = s.beta[lo:e:hi], s.impulse[lo:e:hi]
	t.X, t.Y, t.EdgeLen = s.x[lo:e:hi], s.y[lo:e:hi], s.edgeLen[lo:e:hi]
	t.RPerUnit, t.CPerUnit = s.rPerUnit, s.cPerUnit
}

// Wires is the pin-indexed view of the interconnect results that the level
// sweeps of both timing engines read (§3.3): each net's Elmore results land
// at its own pins, so a kernel reads one column entry instead of walking
// from the pin through its net state and RC tree. ForwardNet is the one
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

// ForwardNet runs net ni's Elmore forward pass (Eq. 7) in s, the calling
// worker's scratch, and publishes the results at the net's pins in w. An
// untimed net (no RC tree) is published as Driver -1 at its pins and Load
// 0 at its driver, so readers skip it. Each net writes only its own pins
// and windows, so nets publish concurrently.
//
//dtgp:hotpath
//dtgp:index ni=net
func ForwardNet(g *Graph, ns *NetStates, ni int32, w *Wires, s *BuildScratch) {
	net := &g.D.Nets[ni]
	if ns.n[ni] == 0 {
		for _, pid := range net.Pins {
			w.Driver[pid] = -1
		}
		if net.Driver >= 0 {
			w.Load[net.Driver] = 0
		}
		return
	}
	rc := &s.rcView
	ns.RC(ni, rc)
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

// BuildScratch is one worker's Steiner and RC construction scratch and its
// views of the net it works on. An engine that re-extracts nets owns one
// per pool worker (NewBuildScratch) and hands a kernel the entry of the
// worker id the pool passes it, so scratch is never shared between
// concurrent builds or between engines, and it stays warm for the
// engine's lifetime.
type BuildScratch struct {
	steiner rsmt.Scratch
	rc      rctree.Scratch
	// pinCap is the per-node pin capacitance of the net being extracted.
	pinCap []float64
	// stView and rcView are the views (NetStates.Steiner, RC) of the net
	// the worker is at.
	stView rsmt.Tree
	rcView rctree.Tree
}

// NewBuildScratch returns one BuildScratch per worker of the default pool,
// indexed by the worker id parallel.ForGuided passes its kernels.
func NewBuildScratch() []BuildScratch {
	return make([]BuildScratch, parallel.Workers())
}

// BuildNetStates constructs Steiner and RC trees for every timed net, in
// parallel, into columns made on the GC heap. This is the "FLUTE + Elmore"
// stage of Fig. 3/7; the forward Elmore passes are left to the caller
// (ForwardNet) so that the reuse path can skip tree construction.
func BuildNetStates(g *Graph) *NetStates {
	return BuildNetStatesArena(g, nil)
}

// BuildNetStatesArena is BuildNetStates with the columns carved from a
// (made on the GC heap when a is nil), over node windows of their own.
// Results are bit-identical to BuildNetStates; only the backing storage
// differs.
func BuildNetStatesArena(g *Graph, a *arena.Arena) *NetStates {
	ns := NewNetStates(g, g.NodeOffsets(a), a)
	RebuildNetStates(g, ns, NewBuildScratch())
	return ns
}

// RebuildNetStates re-extracts every net's Steiner and RC trees in place,
// from the cells' current positions (it refills the design's pin-position
// column first), in the per-worker scratch (one entry per pool worker, see
// NewBuildScratch). Net sizes follow a power law, so the work is
// distributed with guided chunking rather than static splits. Allocation-
// free once the scratch is warm.
//
//dtgp:hotpath
func RebuildNetStates(g *Graph, ns *NetStates, scratch []BuildScratch) {
	g.D.FillPinPositions()
	parallel.ForGuided(len(ns.n), 8, parallel.CostHeavy, func(w, lo, hi int) {
		for ni := lo; ni < hi; ni++ {
			buildNetStateInto(g, ns, int32(ni), &scratch[w])
		}
	})
}

//dtgp:hotpath
//dtgp:index ni=net
func buildNetStateInto(g *Graph, ns *NetStates, ni int32, s *BuildScratch) {
	if ns.off[ni+1] == ns.off[ni] {
		ns.n[ni] = 0
		return
	}
	extractNetState(g, ns, ni, snapshotPins(g, ns, ni), s)
}

// snapshotPins copies each pin of net ni from the design's pin-position
// column into the pin nodes of its window, and returns the half-perimeter
// of the pins' bounding box.
//
//dtgp:hotpath
//dtgp:index ni=net
func snapshotPins(g *Graph, ns *NetStates, ni int32) float64 {
	col := g.D.PinPositions()
	pins := g.D.Nets[ni].Pins
	lo := int(ns.off[ni])
	x, y := ns.x[lo:lo+len(pins)], ns.y[lo:lo+len(pins)]
	minX, minY := math.Inf(1), math.Inf(1)
	maxX, maxY := math.Inf(-1), math.Inf(-1)
	for k, pid := range pins {
		pos := col[pid]
		x[k], y[k] = pos.X, pos.Y
		minX, maxX = min(minX, pos.X), max(maxX, pos.X)
		minY, maxY = min(minY, pos.Y), max(maxY, pos.Y)
	}
	return (maxX - minX) + (maxY - minY)
}

// extractNetState re-extracts net ni's Steiner and RC trees from the pin
// snapshot in its window, whose bounding-box half-perimeter is hp, in
// worker scratch s.
//
//dtgp:hotpath
//dtgp:index ni=net
func extractNetState(g *Graph, ns *NetStates, ni int32, hp float64, s *BuildScratch) {
	net := &g.D.Nets[ni]
	np := len(net.Pins)
	ns.topoHP[ni] = hp
	tree := &s.stView
	ns.Steiner(g, ni, tree)
	rsmt.BuildInto(tree, tree.X[:np], tree.Y[:np], &s.steiner) //dtgp:allow(indexspace) a tree's nodes 0..np-1 are its pins in net order
	nn := tree.NumNodes()
	if cap(s.pinCap) < nn {
		s.pinCap = make([]float64, nn)
	}
	pinCap := s.pinCap[:nn]
	for j := range pinCap {
		pinCap[j] = 0
	}
	// rsmt keeps the pins as nodes 0..np-1 in order, so net pin k is node k.
	for k, pid := range net.Pins {
		if pid != net.Driver {
			pinCap[k] = g.SinkCap[pid]
		}
	}
	rc := &s.rcView
	ns.RC(ni, rc)
	if err := rc.Rebuild(tree, ns.root[ni], pinCap, ns.rPerUnit, ns.cPerUnit, &s.rc); err != nil {
		// A non-finite pin coordinate disconnects the Steiner tree of a net
		// of 3 or more pins (no NaN distance wins rsmt's spanning-tree
		// search). The net stays untimed until a rebuild at finite
		// coordinates succeeds.
		ns.n[ni] = 0
		return
	}
	ns.n[ni] = int32(nn)
}

// RebuildNet is the per-net fence kernel: it re-extracts net ni's Steiner
// and RC trees from the design's pin-position column, which its caller
// fills, runs its Elmore forward pass and publishes it in w, in s, the
// calling worker's scratch. An untimed net is retried too, since it could
// become timeable at new geometry; buildNetStateInto returns at once for
// the structurally untimed ones.
//
//dtgp:hotpath
//dtgp:index ni=net
func RebuildNet(g *Graph, ns *NetStates, ni int32, w *Wires, s *BuildScratch) {
	buildNetStateInto(g, ns, ni, s)
	ForwardNet(g, ns, ni, w, s)
}

// NetMoved reports whether any pin of net ni has moved beyond eps
// (Chebyshev distance, in DBU) since the net's state was last extracted or
// refreshed. It reads the pins from the design's pin-position column, which
// its caller fills. The reference geometry is the pin snapshot that the
// current Steiner/RC state was built from, so no extra per-net memory is
// needed for the dirty test. Untimed nets never report movement. With
// eps == 0 any bitwise coordinate change is movement.
//
//dtgp:hotpath
//dtgp:index ni=net
func NetMoved(g *Graph, ns *NetStates, ni int32, eps float64) bool {
	if ns.n[ni] == 0 {
		return false
	}
	col := g.D.PinPositions()
	pins := g.D.Nets[ni].Pins
	lo := int(ns.off[ni])
	x, y := ns.x[lo:lo+len(pins)], ns.y[lo:lo+len(pins)]
	for k, pid := range pins {
		pos := col[pid]
		if dx := pos.X - x[k]; dx > eps || dx < -eps {
			return true
		}
		if dy := pos.Y - y[k]; dy > eps || dy < -eps {
			return true
		}
	}
	return false
}

// RefreshNetStateLazy refreshes net ni from the design's pin-position
// column, which its caller fills, choosing between the cheap geometry slide
// (§3.6 Steiner reuse: the stored Steiner points move along with their
// attributed pins, the topology stays) and a full topology re-extraction.
// Either way each pin is gathered once, into the pin snapshot, while the
// bounding box is taken. The stored Steiner
// points stay a faithful model while the pin bounding box they were derived
// from keeps roughly its shape, so the half-perimeter is used as the
// distortion proxy: when the current bbox half-perimeter deviates from
// topoHP (the value at the last build) by more than distortionLimit
// relatively, the topology is rebuilt. distortionLimit = +Inf disables
// per-net rebuilds (geometry slide only). A rebuild runs in s, the calling
// worker's scratch. Allocation-free once s is warm.
//
//dtgp:hotpath
//dtgp:index ni=net
func RefreshNetStateLazy(g *Graph, ns *NetStates, ni int32, distortionLimit float64, s *BuildScratch) {
	if ns.n[ni] == 0 {
		return
	}
	hp := snapshotPins(g, ns, ni)
	if topo := ns.topoHP[ni]; math.Abs(hp-topo) > distortionLimit*topo {
		// Note: a degenerate reference bbox (topoHP == 0) rebuilds on any
		// growth, and distortionLimit = +Inf never rebuilds (Inf*0 = NaN and
		// any comparison with NaN is false, which is the wanted behaviour).
		extractNetState(g, ns, ni, hp, s)
		return
	}
	tree, rc := &s.stView, &s.rcView
	ns.Steiner(g, ni, tree)
	tree.UpdateFromPins(tree.X[:tree.NumPins], tree.Y[:tree.NumPins]) //dtgp:allow(indexspace) a tree's pin nodes are its pins in net order
	ns.RC(ni, rc)
	rc.RefreshGeometry()
}

// ForwardAll runs the Elmore forward passes on every net, in parallel, and
// publishes them in w (ForwardNet), worker w in scratch[w] (one entry per
// pool worker, see NewBuildScratch). Its batch adjoint is the core timer's
// elmoreBackward sweep. It is kept out of line, so that its one dispatch
// closure per call stays an escape of ForwardAll in hotalloc.allow instead
// of moving into each caller it would be inlined into (the core timer's
// steady-state refreshNets among them).
//
//go:noinline
//dtgp:hotpath
//dtgp:forward(elmore-batch)
func ForwardAll(g *Graph, ns *NetStates, w *Wires, scratch []BuildScratch) {
	parallel.ForGuided(len(ns.n), 16, parallel.CostDefault, func(wk, lo, hi int) {
		for i := lo; i < hi; i++ {
			ForwardNet(g, ns, int32(i), w, &scratch[wk])
		}
	})
}
