package core

import (
	"fmt"
	"math"
	"time"

	"dtgp/internal/arena"
	"dtgp/internal/liberty"
	"dtgp/internal/parallel"
	"dtgp/internal/rctree"
	"dtgp/internal/rsmt"
	"dtgp/internal/timing"
)

// Options configure the differentiable timer. Net refresh is lazy: only
// nets whose pins moved beyond RefreshEps since their last refresh are slid
// or re-extracted, with a periodic full-refresh fence (FencePeriod). The
// forward sweep and the backward pass always run over the whole graph.
type Options struct {
	// Gamma is the LSE smoothing strength (Eq. 5), in ps. The paper sets
	// it "to around 100".
	Gamma float64

	// RefreshEps is the per-pin displacement threshold ε in DBU (Chebyshev
	// distance against the geometry of the net's last refresh) below which
	// a net keeps its cached Steiner/RC state. 0 means any bitwise movement
	// refreshes (exact).
	RefreshEps float64 //dtgp:allow(unturned) frozenOptions sets 0, the exact oracle of the finite-difference and tape tests
	// DistortionLimit is the relative pin-bbox half-perimeter change that
	// triggers a per-net Steiner topology rebuild instead of the cheap
	// geometry slide. +Inf disables per-net rebuilds; <= 0 selects the
	// default (0.5). Kept deliberately loose: scattered per-net rebuilds
	// are objective discontinuities mid-descent, so only violently
	// distorted nets rebuild between fences.
	DistortionLimit float64
	// FencePeriod is the Steiner-topology reuse period (§3.6, "every 10
	// iterations"): every FencePeriod evaluations a full-refresh fence
	// re-extracts every net's Steiner and RC trees, bounding drift
	// from skipped sub-ε movement. Between fences stored Steiner points
	// ride along with their pins. <= 0 selects the default (10).
	FencePeriod int

	// Arena backs the timer's large SoA buffers (forward state, cell-arc
	// tape, the wire view and its adjoints, the Fig. 4 node slab,
	// gradients, CSR group storage) and the net-state columns with chunked
	// slab storage (DESIGN.md §13). The placer passes its engine's arena;
	// nil makes NewTimer carve its own, sized by arena.ChunkSize.
	Arena *arena.Arena
}

// DefaultOptions mirrors the paper's §4 hyperparameters: ε = 0.5 DBU, 50%
// distortion rebuild and a fence every 10 evaluations (the paper's Steiner
// reuse period).
func DefaultOptions() Options {
	return Options{
		Gamma:           100,
		RefreshEps:      0.5,
		DistortionLimit: 0.5,
		FencePeriod:     10,
	}
}

// PhaseTimes accumulates wall-clock nanoseconds per Evaluate phase, split so
// benchmarks can report forward and backward cost separately.
type PhaseTimes struct {
	// ForwardNS covers net refresh, Elmore forward and the level sweep.
	ForwardNS int64
	// ConeBuildNS is always 0: no pass builds a cone. It stays only because
	// benchmark/profile.go's replayer reads it, and ROADMAP item 2, which
	// replaces that replayer, deletes the field.
	ConeBuildNS int64
	// BackwardNS covers seeding, the reverse sweep, Elmore backward and the
	// Fig. 4 redistribution.
	BackwardNS int64
}

// ConeStats counts a Timer's backward passes. Read it via Timer.Cone. It
// stays only because benchmark/profile.go's replayer reads it, and ROADMAP
// item 2, which replaces that replayer, deletes the type.
type ConeStats struct {
	// SparsePasses is always 0; FullPasses counts every backward pass.
	SparsePasses int
	FullPasses   int
}

// Coverage is always 0: no backward pass is restricted to a cone.
func (ConeStats) Coverage() float64 { return 0 }

// epState is the per-endpoint slack state of one objective evaluation.
type epState struct {
	s    [2]float64 // per transition slack (smoothed ATs)
	hard [2]float64 // hard-AT slack estimate
	ok   [2]bool
	sEp  float64
	wTr  [2]float64
}

// fwdTileGrain is the minimum guided-chunk size of a forward level, in
// pins. Guided chunks start at a quarter of the level per lane on two
// lanes, so the grain only sizes a level's tail: 64 consecutive pins still
// touch each SoA array at 2·pid in whole cache lines, and a level of a few
// hundred pins (most cell-output levels, at about 500 ns a pin) splits
// into tail chunks both lanes share instead of one chunk plus a remainder
// (DESIGN.md §13).
const fwdTileGrain = 64

// Timer is the differentiable STA engine (Fig. 3). A single Evaluate call
// runs the full forward propagation (pin locations → Steiner/Elmore → level
// by level arrival/slew → smoothed slacks → TNS_γ, WNS_γ) and the full
// backward pass to per-cell location gradients.
//
// All per-iteration state lives in buffers owned by the Timer (or by
// per-worker scratch), so steady-state Evaluate calls are allocation-free;
// kernels are dispatched through the persistent worker pool with closures
// created once at construction.
type Timer struct {
	G    *timing.Graph
	Opts Options

	// Nets carries the Steiner/RC state: re-extracted at fences and on
	// bbox distortion, coordinate-refreshed otherwise. Its columns are
	// carved at the first evaluation, over the node windows of slabOff.
	Nets *timing.NetStates
	// Wires is the pin-indexed view of the Nets' Elmore results that the
	// level sweeps read, published after every Elmore forward pass.
	Wires timing.Wires

	// Forward state per (pin, transition) index; smoothed late analysis.
	AT, Slew []float64 //dtgp:index domain=tnode
	Valid    []bool    //dtgp:index domain=tnode
	// HardAT tracks the exact max alongside the LSE so WNS/TNS estimates
	// are available without a separate exact pass.
	HardAT []float64 //dtgp:index domain=tnode

	// Cell-arc tape: what the reverse sweep needs of Eq. 11, recorded by
	// forwardCellOut. Its windows are the graph's candidate windows: the
	// valid LSE candidates of cell-output tnode v occupy the slots from
	// G.CandOff[v], in fan-in order, and a slotIn of -1 ends the window
	// before G.CandOff[v+1] when some inputs are invalid. Each slot holds
	// the input tnode, the arrival and slew LSE weights (divided by their
	// partition sums) and the delay- and transition-LUT slopes in input slew
	// and output load.
	slotIn                   []int32   //dtgp:index domain=arcslot elem=tnode
	slotWAT, slotWSlew       []float64 //dtgp:index domain=arcslot
	slotDelayDS, slotDelayDL []float64 //dtgp:index domain=arcslot
	slotSlewDS, slotSlewDL   []float64 //dtgp:index domain=arcslot

	// Backward accumulators. gDelay, gImpulseSq and gLoad are the adjoints
	// of the Wires columns of the same names, at the same pins: ∂f/∂Delay
	// and ∂f/∂Impulse² at net sinks, ∂f/∂Load at net drivers.
	gAT, gSlew                []float64 //dtgp:index domain=tnode
	gDelay, gImpulseSq, gLoad []float64 //dtgp:index domain=pin
	// nodeGDelay and nodeGImpSq are elmoreBackward's per-worker windows of
	// maxNodes Steiner-node entries each, into which it gathers one net's
	// sink adjoints (worker w owns the w-th window), and grads[w] is worker
	// w's Elmore gradient, pre-sized for maxNodes nodes.
	nodeGDelay, nodeGImpSq []float64
	grads                  []rctree.Grad
	maxNodes               int
	// pinCell[p] is the cell of pin p, for the Fig. 4 redistribution.
	pinCell []int32 //dtgp:index domain=pin elem=cell
	// The Fig. 4 node slab: net ni's window [slabOff[ni], slabOff[ni+1])
	// has one entry per node of its largest tree (MaxTreeNodes). slabOff
	// is timing.Graph.NodeOffsets, the node windows of Nets as well.
	// elmoreBackward writes each Steiner node's X and Y gradient there,
	// next to the cell of the pin the axis is attributed to
	// (rsmt.Tree.XPin/YPin), and zeroes the rest of the window; backward
	// then streams the slab onto CellGradX/Y in net order.
	slabOff              []int32 //dtgp:index domain=net
	slabGX, slabGY       []float64
	slabCellX, slabCellY []int32 //dtgp:index elem=cell

	// Outputs of Evaluate.
	CellGradX, CellGradY []float64 //dtgp:index domain=cell
	// SmTNS/SmWNS are the smoothed objective values TNS_γ, WNS_γ;
	// EstTNS/EstWNS are hard-max estimates from the same pass.
	SmTNS, SmWNS   float64
	EstTNS, EstWNS float64

	evalCount int
	// backwardPasses counts backward passes, for Cone.
	backwardPasses int

	// Precomputed structure.
	// The reverse sweep's single-writer groups (buildGroups), per level:
	// net-sink pins grouped by net first, then cell-output pins grouped by
	// cell (the write sets are disjoint: net groups update driver pins and
	// their own sinks' adjoints, cell groups update cell-input pins and
	// their own outputs' load adjoints, so both kinds run in one parallel
	// phase per level). Storage is CSR: group k's pins are
	// groupPins[groupOff[k]:groupOff[k+1]], level li's groups are
	// levelGroup[li] to levelGroup[li+1], and the ones before
	// levelNetEnd[li] are its net groups.
	groupPins   []int32 //dtgp:index elem=pin
	groupOff    []int32
	levelGroup  []int32 //dtgp:index domain=level
	levelNetEnd []int32 //dtgp:index domain=level
	// Start pins and their constraint-derived AT/slew, fixed per design
	// (startAT/startSlew are positional companions of startPins).
	startPins          []int32 //dtgp:index elem=pin
	startAT, startSlew []float64

	// Stored kernel closures. They are built once in NewTimer and capture
	// only the receiver; per-call state is passed through the cur* fields,
	// keeping the steady state free of closure allocations.
	curLevel   []int32 //dtgp:index elem=pin
	curGroup   int32   // the first group of the level the reverse sweep is at
	curNetEnd  int32   // and its first cell group
	fwdResetFn func(w, lo, hi int)
	fwdFn      func(w, lo, hi int)
	bwdFn      func(i int)
	elmoreFn   func(w, lo, hi int)
	fenceFn    func(w, lo, hi int)
	refreshFn  func(w, lo, hi int)
	resetTasks []func()
	// scratch is the per-worker Steiner/RC build scratch of fenceFn and
	// refreshFn, indexed by the worker id the pool passes them.
	scratch []timing.BuildScratch

	// Objective scratch: the per-endpoint slack state, and the smoothed
	// slacks and endpoint indices of the constrained endpoints.
	epStates []epState //dtgp:index domain=endp
	sEps     []float64
	epIdx    []int32 //dtgp:index elem=endp

	// Phase is the cumulative per-phase wall-clock split of Evaluate calls.
	// Benchmarks may reset it between warm-up and measurement.
	Phase PhaseTimes
}

// NewTimer builds a differentiable timer over a timing graph.
func NewTimer(g *timing.Graph, opts Options) *Timer {
	if opts.Gamma <= 0 {
		opts.Gamma = 100
	}
	if opts.DistortionLimit <= 0 {
		opts.DistortionLimit = 0.5
	}
	if opts.FencePeriod <= 0 {
		opts.FencePeriod = 10
	}
	if opts.RefreshEps < 0 {
		opts.RefreshEps = 0
	}
	// The big per-tnode/per-net/per-cell SoA arrays carve from the arena.
	// Slices of pointer-bearing types (grads, epStates) stay on the GC heap
	// by construction: the arena's type set rejects them.
	if opts.Arena == nil {
		opts.Arena = arena.New(arena.ChunkSize(len(g.D.Cells)))
	}
	a := opts.Arena
	nPins := len(g.D.Pins)
	n2 := 2 * nPins
	nCand := len(g.CandIn) // the tape has one slot per candidate, so its windows never move
	t := &Timer{
		G:    g,
		Opts: opts,
		Wires: timing.NewWires(arena.Make[int32](a, nPins), arena.Make[float64](a, nPins),
			arena.Make[float64](a, nPins), arena.Make[float64](a, nPins)),
		AT:          arena.Make[float64](a, n2),
		Slew:        arena.Make[float64](a, n2),
		Valid:       arena.Make[bool](a, n2),
		HardAT:      arena.Make[float64](a, n2),
		slotIn:      arena.Make[int32](a, nCand),
		slotWAT:     arena.Make[float64](a, nCand),
		slotWSlew:   arena.Make[float64](a, nCand),
		slotDelayDS: arena.Make[float64](a, nCand),
		slotDelayDL: arena.Make[float64](a, nCand),
		slotSlewDS:  arena.Make[float64](a, nCand),
		slotSlewDL:  arena.Make[float64](a, nCand),
		gAT:         arena.Make[float64](a, n2),
		gSlew:       arena.Make[float64](a, n2),
		gDelay:      arena.Make[float64](a, nPins),
		gImpulseSq:  arena.Make[float64](a, nPins),
		gLoad:       arena.Make[float64](a, nPins),
		pinCell:     arena.Make[int32](a, nPins),
		slabOff:     g.NodeOffsets(a),
		CellGradX:   arena.Make[float64](a, len(g.D.Cells)),
		CellGradY:   arena.Make[float64](a, len(g.D.Cells)),
		epStates:    make([]epState, len(g.Endpoints)),
	}
	for pi := range g.D.Pins {
		t.pinCell[pi] = g.D.Pins[pi].Cell
	}
	for ni := range g.D.Nets {
		t.maxNodes = max(t.maxNodes, int(t.slabOff[ni+1]-t.slabOff[ni]))
	}
	nSlab := int(t.slabOff[len(g.D.Nets)])
	t.slabGX = arena.Make[float64](a, nSlab)
	t.slabGY = arena.Make[float64](a, nSlab)
	t.slabCellX = arena.Make[int32](a, nSlab)
	t.slabCellY = arena.Make[int32](a, nSlab)
	nw := parallel.Workers()
	t.nodeGDelay = arena.Make[float64](a, nw*t.maxNodes)
	t.nodeGImpSq = arena.Make[float64](a, nw*t.maxNodes)
	t.grads = make([]rctree.Grad, nw)
	for w := range t.grads {
		t.grads[w].PreSize(t.maxNodes, arena.Make[float64](a, 8*t.maxNodes))
	}
	t.buildGroups()
	t.buildStartPins()
	t.buildKernels()
	t.scratch = timing.NewBuildScratch()
	return t
}

// Reanchor resets the evaluation cadence so the next Evaluate runs the
// full-refresh fence, which re-extracts every net. After that
// evaluation the timer's observable behaviour — outputs and all subsequent
// evaluations — is bitwise identical to a freshly constructed timer
// evaluated at the same cell positions. The net geometry of the last
// refresh and the fence phase are the only history the timer keeps: every
// evaluation recomputes the whole forward state, the cell-arc tape and the
// gradients from the nets' Steiner/RC state.
//
// The durable-checkpoint path calls this after every committed save, in the
// original run and in resumed runs alike, which is what makes
// kill-at-any-checkpoint + resume bit-identical to the uninterrupted run: a
// resumed run's fresh timer and the original run's re-anchored warm timer
// start their next evaluation from equal state.
func (t *Timer) Reanchor() { t.evalCount = 0 }

// Cone returns the backward-pass counts.
func (t *Timer) Cone() ConeStats { return ConeStats{FullPasses: t.backwardPasses} }

// buildGroups lays the reverse-sweep groups out in CSR form: one global
// groupPins slab holds every grouped pin, groupOff delimits each group's
// window of it, and levelGroup and levelNetEnd delimit each level's groups
// and its net groups; all four are carved from the arena. Two passes over
// the levelisation — count, then fill — use epoch-stamped direct-indexed
// scratch; group order is fixed (per level: nets in first-seen pin order,
// then cells in first-seen pin order, each group's pins in level order), so
// the parallel schedule and every serial fallback order are deterministic.
func (t *Timer) buildGroups() {
	g := t.G
	d := g.D
	a := t.Opts.Arena
	nLevels := len(g.Levels)

	// Epoch-stamped scratch: xEpoch[key] == stamp means key was already
	// seen in the level the stamp encodes, and xIdxOf[key] is its group
	// index local to that level's net or cell groups. Pass 2 re-walks the
	// levels with stamps offset by nLevels, so no re-initialisation is
	// needed between passes.
	netEpoch := make([]int32, len(d.Nets))
	cellEpoch := make([]int32, len(d.Cells))
	for i := range netEpoch {
		netEpoch[i] = -1
	}
	for i := range cellEpoch {
		cellEpoch[i] = -1
	}
	netIdxOf := make([]int32, len(d.Nets))
	cellIdxOf := make([]int32, len(d.Cells))

	// Pass 1: per-group pin counts in final group order, plus per-level
	// group counts (net groups first, then cell groups).
	var sizes []int32
	t.levelGroup = arena.Make[int32](a, nLevels+1)
	t.levelNetEnd = arena.Make[int32](a, nLevels)
	netScratch := make([]int32, 0, 64)  // per-level net-group sizes
	cellScratch := make([]int32, 0, 64) // per-level cell-group sizes
	for li, level := range g.Levels {
		stamp := int32(li)
		netScratch, cellScratch = netScratch[:0], cellScratch[:0]
		for _, pid := range level {
			switch {
			case g.IsStart[pid]:
			case g.IsNetSink[pid]:
				if ni := g.NetOfSink[pid]; ni >= 0 {
					if netEpoch[ni] != stamp {
						netEpoch[ni] = stamp
						netIdxOf[ni] = int32(len(netScratch))
						netScratch = append(netScratch, 0)
					}
					netScratch[netIdxOf[ni]]++
				}
			case g.IsCellOut[pid]:
				ci := d.Pins[pid].Cell
				if cellEpoch[ci] != stamp {
					cellEpoch[ci] = stamp
					cellIdxOf[ci] = int32(len(cellScratch))
					cellScratch = append(cellScratch, 0)
				}
				cellScratch[cellIdxOf[ci]]++
			}
		}
		t.levelGroup[li] = int32(len(sizes))
		t.levelNetEnd[li] = int32(len(sizes) + len(netScratch))
		sizes = append(sizes, netScratch...)
		sizes = append(sizes, cellScratch...)
	}
	totalGroups := len(sizes)
	t.levelGroup[nLevels] = int32(totalGroups)

	// Prefix-sum the group sizes into slab offsets.
	t.groupOff = arena.Make[int32](a, totalGroups+1)
	for i, n := range sizes {
		t.groupOff[i+1] = t.groupOff[i] + n
	}
	t.groupPins = arena.Make[int32](a, int(t.groupOff[totalGroups]))
	fill := sizes // reuse as per-group fill cursors
	for i := range fill {
		fill[i] = 0
	}

	// Pass 2: place each grouped pin at its slab position.
	for li, level := range g.Levels {
		stamp := int32(nLevels + li)
		base, netEnd := t.levelGroup[li], t.levelNetEnd[li]
		// Local group indices restart at 0 each level, mirroring pass 1.
		netScratch, cellScratch = netScratch[:0], cellScratch[:0]
		for _, pid := range level {
			var gi int32 = -1
			switch {
			case g.IsStart[pid]:
			case g.IsNetSink[pid]:
				if ni := g.NetOfSink[pid]; ni >= 0 {
					if netEpoch[ni] != stamp {
						netEpoch[ni] = stamp
						netIdxOf[ni] = int32(len(netScratch))
						netScratch = append(netScratch, 0)
					}
					gi = base + netIdxOf[ni]
				}
			case g.IsCellOut[pid]:
				ci := d.Pins[pid].Cell
				if cellEpoch[ci] != stamp {
					cellEpoch[ci] = stamp
					cellIdxOf[ci] = int32(len(cellScratch))
					cellScratch = append(cellScratch, 0)
				}
				gi = netEnd + cellIdxOf[ci]
			}
			if gi >= 0 {
				t.groupPins[t.groupOff[gi]+fill[gi]] = pid
				fill[gi]++
			}
		}
	}
}

// buildStartPins caches start pins with their constraint AT/slew: these are
// placement-independent, so the forward pass only copies them.
func (t *Timer) buildStartPins() {
	g := t.G
	for pi := range g.D.Pins {
		pid := int32(pi)
		if !g.IsStart[pid] {
			continue
		}
		at, slew := g.StartArrival(pid)
		t.startPins = append(t.startPins, pid)
		t.startAT = append(t.startAT, at)
		t.startSlew = append(t.startSlew, slew)
	}
}

// buildKernels creates the stored dispatch closures and reset tasks.
func (t *Timer) buildKernels() {
	t.fwdResetFn = func(_, lo, hi int) {
		ninf := math.Inf(-1)
		for i := lo; i < hi; i++ {
			t.AT[i] = ninf
			t.HardAT[i] = ninf
			t.Slew[i] = 0
			t.Valid[i] = false
		}
	}
	t.fwdFn = func(_, lo, hi int) {
		g := t.G
		level := t.curLevel
		for i := lo; i < hi; i++ {
			pid := level[i]
			switch {
			case g.IsStart[pid]:
			case g.IsNetSink[pid]:
				t.forwardNetSink(pid)
			case g.IsCellOut[pid]:
				t.forwardCellOut(pid)
			}
		}
	}
	t.bwdFn = func(i int) { t.backwardGroup(t.curGroup + int32(i)) }
	t.elmoreFn = t.elmoreBackward
	t.fenceFn = func(w, lo, hi int) {
		for i := lo; i < hi; i++ {
			timing.RebuildNet(t.G, t.Nets, int32(i), &t.Wires, &t.scratch[w])
		}
	}
	t.refreshFn = func(w, lo, hi int) {
		for i := lo; i < hi; i++ {
			if ni := int32(i); timing.NetMoved(t.G, t.Nets, ni, t.Opts.RefreshEps) {
				timing.RefreshNetStateLazy(t.G, t.Nets, ni, t.Opts.DistortionLimit, &t.scratch[w])
				timing.ForwardNet(t.G, t.Nets, ni, &t.Wires, &t.scratch[w])
			}
		}
	}
	t.resetTasks = []func(){
		func() {
			for i := range t.gAT {
				t.gAT[i] = 0
				t.gSlew[i] = 0
			}
		},
		func() {
			for i := range t.CellGradX {
				t.CellGradX[i] = 0
				t.CellGradY[i] = 0
			}
		},
		func() {
			for i := range t.gDelay {
				t.gDelay[i] = 0
				t.gImpulseSq[i] = 0
				t.gLoad[i] = 0
			}
		},
	}
}

// refreshNets updates or rebuilds the Steiner/RC state and runs the Elmore
// forward passes (Fig. 3 stages 1-2) at the cells' current positions: it
// first refills the design's pin-position column, which the net kernels
// read (the first build fills it itself). It is displacement-driven: one
// guided kernel over all nets gives each net whose pins moved beyond
// RefreshEps against the geometry of its last refresh the lazy
// refresh-or-rebuild plus Elmore forward. Each net writes only its own
// windows and its own pins of Wires, so the schedule does not change the
// result. The first evaluation carves the net-state columns over the
// slab's node windows and builds every net, and every FencePeriod-th
// evaluation re-extracts every net (the fence that bounds sub-ε drift).
//
//dtgp:hotpath
func (t *Timer) refreshNets() {
	nNets := len(t.G.D.Nets)
	switch {
	case t.Nets == nil:
		t.Nets = timing.NewNetStates(t.G, t.slabOff, t.Opts.Arena)
		timing.RebuildNetStates(t.G, t.Nets, t.scratch)
		timing.ForwardAll(t.G, t.Nets, &t.Wires, t.scratch)
	case t.evalCount%t.Opts.FencePeriod == 0:
		t.G.D.FillPinPositions()
		parallel.ForGuided(nNets, 8, parallel.CostHeavy, t.fenceFn)
	default:
		t.G.D.FillPinPositions()
		parallel.ForGuided(nNets, 8, parallel.CostHeavy, t.refreshFn)
	}
	t.evalCount++
}

// Evaluate runs one forward+backward pass. t1 and t2 weight the TNS and WNS
// objectives (Eq. 6). It returns the timing objective value
// f = −t1·TNS_γ − t2·WNS_γ (non-negative when violations exist); its
// gradient with respect to cell positions is left in CellGradX/CellGradY.
//
//dtgp:hotpath
func (t *Timer) Evaluate(t1, t2 float64) float64 {
	start := time.Now()
	t.refreshNets()
	t.forward()
	mid := time.Now()
	t.Phase.ForwardNS += mid.Sub(start).Nanoseconds()
	f := t.backward(t1, t2)
	t.Phase.BackwardNS += time.Since(mid).Nanoseconds()
	return f
}

// EvaluateValueOnly runs just the forward pass (for tests and finite
// difference checks) and returns f without touching gradients.
//
//dtgp:hotpath
func (t *Timer) EvaluateValueOnly(t1, t2 float64) float64 {
	t.refreshNets()
	t.forward()
	f, _ := t.objective(t1, t2, false)
	return f
}

// ---------------------------------------------------------------------------
// Forward pass (§3.3 steps 3-4).

//dtgp:hotpath
func (t *Timer) forward() {
	parallel.ForWorker(len(t.AT), parallel.CostTrivial, t.fwdResetFn)

	// Starts.
	for k, pid := range t.startPins {
		at, slew := t.startAT[k], t.startSlew[k]
		for tr := timing.Rise; tr <= timing.Fall; tr++ {
			ti := timing.TIdx(pid, tr)
			t.AT[ti], t.HardAT[ti] = at, at
			t.Slew[ti] = slew
			t.Valid[ti] = true
		}
	}

	// Each level is dispatched in cache-sized contiguous tiles; the pool
	// runs a level below its parallel cutoff inline. Level pin lists are
	// in ascending pin order (the levelisation appends pins in index
	// order), so tiles touch the SoA arrays in memory order. Cell-output
	// pins do several LUT evaluations each, hence CostHeavy.
	for _, level := range t.G.Levels {
		t.curLevel = level
		parallel.ForGuided(len(level), fwdTileGrain, parallel.CostHeavy, t.fwdFn)
	}
}

// forwardNetSink applies Eq. 9 per transition. HardAT is the hard
// (non-smoothed) arrival used only for reporting and is deliberately not
// differentiated.
//
//dtgp:hotpath
//dtgp:forward(netprop)
//dtgp:nondiff(HardAT)
//dtgp:index pid=pin
func (t *Timer) forwardNetSink(pid int32) {
	driver := t.Wires.Driver[pid]
	if driver < 0 {
		return
	}
	delay, impSq := t.Wires.Delay[pid], t.Wires.ImpulseSq[pid]
	for tr := timing.Rise; tr <= timing.Fall; tr++ {
		u, v := timing.TIdx(driver, tr), timing.TIdx(pid, tr)
		if !t.Valid[u] {
			continue
		}
		t.AT[v] = t.AT[u] + delay
		t.HardAT[v] = t.HardAT[u] + delay
		t.Slew[v] = math.Sqrt(t.Slew[u]*t.Slew[u] + impSq)
		t.Valid[v] = true
	}
}

// forwardCellOut applies Eq. 11: LUT delays aggregated with LSE over all
// (input pin, input transition) candidates, recorded on the cell-arc tape
// for backwardCellOut. Each LUT is evaluated once, with its slopes, through
// one query per pin, so the load is located once on a shared load axis and
// each candidate's slew once for both of its tables. The weight columns
// first hold the candidate arrival and slew, then their shifted
// exponentials, then the normalised weights; the kernel writes each slot
// before reading it, so those reads are not inputs. HardAT is the
// hard (non-smoothed) arrival, deliberately not differentiated.
//
//dtgp:hotpath
//dtgp:forward(cellarc)
//dtgp:nondiff(HardAT, slotWAT, slotWSlew)
//dtgp:index pid=pin
func (t *Timer) forwardCellOut(pid int32) {
	g := t.G
	gamma := t.Opts.Gamma
	var q liberty.Query
	q.SetY(t.Wires.Load[pid])
	for outTr := timing.Rise; outTr <= timing.Fall; outTr++ {
		v := timing.TIdx(pid, outTr)
		lo, end := g.CandOff[v], g.CandOff[v+1]
		hi := lo
		for c := lo; c < end; c++ {
			u := g.CandIn[c]
			if !t.Valid[u] {
				continue
			}
			q.SetX(t.Slew[u])
			d, dDds, dDdl := q.EvalGrad(g.LUTs[g.CandDelay[c]])
			s, dSds, dSdl := q.EvalGrad(g.LUTs[g.CandTrans[c]])
			t.slotIn[hi] = u
			t.slotWAT[hi], t.slotWSlew[hi] = t.AT[u]+d, s
			t.slotDelayDS[hi], t.slotDelayDL[hi] = dDds, dDdl
			t.slotSlewDS[hi], t.slotSlewDL[hi] = dSds, dSdl
			hi++
		}
		if hi < end {
			t.slotIn[hi] = -1
		}
		if hi == lo {
			continue
		}
		// Two-pass stable LSE over the recorded candidates.
		atM, slM := math.Inf(-1), math.Inf(-1)
		hardBest := math.Inf(-1)
		for k := lo; k < hi; k++ {
			cat, csl := t.slotWAT[k], t.slotWSlew[k]
			if cat > atM {
				atM = cat
			}
			if csl > slM {
				slM = csl
			}
			u := t.slotIn[k]
			if h := t.HardAT[u] + (cat - t.AT[u]); h > hardBest {
				hardBest = h
			}
		}
		var atZ, slZ float64
		for k := lo; k < hi; k++ {
			ea := math.Exp((t.slotWAT[k] - atM) / gamma)
			es := math.Exp((t.slotWSlew[k] - slM) / gamma)
			t.slotWAT[k], t.slotWSlew[k] = ea, es
			atZ += ea
			slZ += es
		}
		for k := lo; k < hi; k++ {
			t.slotWAT[k] /= atZ
			t.slotWSlew[k] /= slZ
		}
		t.AT[v] = atM + gamma*math.Log(atZ)
		t.Slew[v] = slM + gamma*math.Log(slZ)
		t.HardAT[v] = hardBest
		t.Valid[v] = true
	}
}

// ---------------------------------------------------------------------------
// Objective and backward pass (§3.3 step 5).

// softMin2Grad is the two-input smooth minimum −LSE_γ(−x0, −x1) ("we
// transform min to the max of the inverse value of operands", §3.2) with its
// gradient weights, which are non-negative, sum to 1 and concentrate on the
// smaller input.
//
//dtgp:hotpath
func softMin2Grad(gamma, x0, x1 float64) (v, w0, w1 float64) {
	n0, n1 := -x0, -x1
	m := n0
	if n1 > m {
		m = n1
	}
	w0 = math.Exp((n0 - m) / gamma)
	w1 = math.Exp((n1 - m) / gamma)
	z := w0 + w1
	return -(m + gamma*math.Log(z)), w0 / z, w1 / z
}

// objective computes the smoothed slack objective; when seed is true it
// additionally spreads ∂f/∂slack into gAT/gSlew (the endpoint seeds of the
// reverse sweep). All scratch is Timer-owned.
//
//dtgp:hotpath
func (t *Timer) objective(t1, t2 float64, seed bool) (float64, bool) {
	g := t.G
	gamma := t.Opts.Gamma

	for ei := range g.Endpoints {
		ep := &g.Endpoints[ei]
		st := &t.epStates[ei]
		*st = epState{}
		for tr := timing.Rise; tr <= timing.Fall; tr++ {
			ti := timing.TIdx(ep.Pin, tr)
			if !t.Valid[ti] {
				continue
			}
			// A register's setup requirement depends on the data slew
			// through the constraint LUT, so the required time is a
			// function of placement; seedEndpoints chains through it.
			// +Inf marks an unconstrained endpoint.
			rat := g.RequiredLate(ep, tr, t.Slew[ti])
			if math.IsInf(rat, 1) {
				continue
			}
			st.s[tr] = rat - t.AT[ti]
			st.hard[tr] = rat - t.HardAT[ti]
			st.ok[tr] = true
		}
		switch {
		case st.ok[0] && st.ok[1]:
			st.sEp, st.wTr[0], st.wTr[1] = softMin2Grad(gamma, st.s[0], st.s[1])
		case st.ok[0]:
			st.sEp, st.wTr[0] = st.s[0], 1
		case st.ok[1]:
			st.sEp, st.wTr[1] = st.s[1], 1
		default:
			st.sEp = math.Inf(1)
		}
	}

	// Smoothed TNS (Σ softneg) and WNS (softmin over endpoints), plus the
	// hard estimates.
	smTNS, estTNS := 0.0, 0.0
	estWNS := math.Inf(1)
	t.sEps = t.sEps[:0]
	t.epIdx = t.epIdx[:0]
	for ei := range t.epStates {
		st := &t.epStates[ei]
		if math.IsInf(st.sEp, 1) {
			continue
		}
		sn, _ := SoftNegGrad(gamma, st.sEp)
		smTNS += sn
		t.sEps = append(t.sEps, st.sEp)
		t.epIdx = append(t.epIdx, int32(ei))
		hardEp := math.Inf(1)
		for tr := 0; tr < 2; tr++ {
			if st.ok[tr] && st.hard[tr] < hardEp {
				hardEp = st.hard[tr]
			}
		}
		if hardEp < estWNS {
			estWNS = hardEp
		}
		if hardEp < 0 {
			estTNS += hardEp
		}
	}
	if len(t.sEps) == 0 {
		t.SmTNS, t.SmWNS, t.EstTNS, t.EstWNS = 0, 0, 0, 0
		return 0, false
	}
	// Inline softmin over endpoint slacks (the shifted form of
	// softMin2Grad, with the weights recomputed in the seed loop).
	wnsM := math.Inf(-1)
	for _, s := range t.sEps {
		if -s > wnsM {
			wnsM = -s
		}
	}
	wnsZ := 0.0
	for _, s := range t.sEps {
		wnsZ += math.Exp((-s - wnsM) / gamma)
	}
	smWNS := -(wnsM + gamma*math.Log(wnsZ))
	t.SmTNS, t.SmWNS = smTNS, smWNS
	t.EstTNS, t.EstWNS = estTNS, estWNS

	f := -t1*smTNS - t2*smWNS
	if seed {
		t.seedEndpoints(wnsM, wnsZ, t1, t2)
	}
	return f, true
}

// seedEndpoints spreads ∂f/∂slack of the constrained endpoints (epIdx) into
// gAT and gSlew, the seeds of the reverse sweep, with the WNS softmin
// weights exp((−slack − m)/γ)/z of the objective's shift m and partition
// value z. slack = RAT − AT with RAT = T − setup(clockSlew, Slew), so
// register seeds chain through the setup LUT's slew derivative.
//
//dtgp:hotpath
//dtgp:forward(ep-seed)
//dtgp:backward(ep-seed)
func (t *Timer) seedEndpoints(m, z, t1, t2 float64) {
	g := t.G
	gamma := t.Opts.Gamma
	for _, ei := range t.epIdx {
		st := &t.epStates[ei]
		ep := &g.Endpoints[ei]
		_, dTNS := SoftNegGrad(gamma, st.sEp)
		wEp := math.Exp((-st.sEp-m)/gamma) / z
		dfdsEp := -t1*dTNS - t2*wEp
		for tr := timing.Rise; tr <= timing.Fall; tr++ {
			if !st.ok[tr] {
				continue
			}
			ti := timing.TIdx(ep.Pin, tr)
			dfds := dfdsEp * st.wTr[tr]
			t.gAT[ti] -= dfds
			if ep.Kind == timing.EndFFData && ep.Setup != nil {
				lut := timing.ConstraintTable(ep.Setup.Arc, tr)
				_, _, dRdSlew := lut.EvalGrad(g.ClockSlew(), t.Slew[ti])
				t.gSlew[ti] -= dRdSlew * dfds
			}
		}
	}
}

// backward is the exact backward pass: it seeds every constrained endpoint,
// sweeps the levels in reverse applying Eq. 12 (cell arcs) and Eq. 10 (net
// arcs), runs Eq. 8 (Elmore) over every net that has a tree, then maps
// Steiner-node gradients onto cells via pin attribution (Fig. 4).
//
//dtgp:hotpath
func (t *Timer) backward(t1, t2 float64) float64 {
	g := t.G
	t.backwardPasses++

	// Clear the accumulators; independent regions run as pool tasks.
	parallel.Run(t.resetTasks...)

	f, any := t.objective(t1, t2, true)
	if !any {
		return f
	}

	// Reverse level sweep. Groups keep each fan-in location single-writer:
	// net groups write driver (cell-output) pins and their sinks' adjoints,
	// cell groups write cell-input pins and their outputs' load adjoints —
	// disjoint sets, so both kinds run in one parallel phase per level.
	for li := len(g.Levels) - 1; li >= 0; li-- {
		t.curGroup, t.curNetEnd = t.levelGroup[li], t.levelNetEnd[li]
		parallel.ForCost(int(t.levelGroup[li+1]-t.curGroup), parallel.CostHeavy, t.bwdFn)
	}

	// Elmore backward per net (Eq. 8) into the node slab; guided chunking
	// balances the power-law net-size distribution. A net no adjoint
	// reached has all-zero seeds and so all-zero node gradients. The serial
	// Fig. 4 redistribution then streams the slab, which is in net order
	// and node order within a net, skipping zero entries: every cell
	// receives its additions in net-index order, so the results are
	// schedule-independent.
	parallel.ForGuided(len(g.D.Nets), 4, parallel.CostHeavy, t.elmoreFn)
	for k, gx := range t.slabGX {
		if gx != 0 {
			t.CellGradX[t.slabCellX[k]] += gx
		}
		if gy := t.slabGY[k]; gy != 0 {
			t.CellGradY[t.slabCellY[k]] += gy
		}
	}
	return f
}

// elmoreBackward runs the Elmore backward pass (Eq. 8) for nets lo..hi-1: the
// batch adjoint of timing.ForwardAll. It gathers each net's pin-indexed
// sink adjoints into worker w's node window (net pin k is Steiner node k;
// the driver's entries are 0, as it sinks no net, and Steiner points get
// 0), sweeps the net's RC tree into worker w's Grad and copies the node
// gradients into the net's window of the node slab, each next to the cell
// its axis is attributed to; the rest of the window, all of it for a net
// without a tree, is zeroed. Bound once as t.elmoreFn so the hot loop
// dispatches without a per-call method value.
//
//dtgp:hotpath
//dtgp:backward(elmore-batch)
func (t *Timer) elmoreBackward(w, lo, hi int) {
	d := t.G.D
	base := w * t.maxNodes
	gr := &t.grads[w]
	// The views of the net at hand, reused from net to net.
	var tree rsmt.Tree
	var rc rctree.Tree
	for i := lo; i < hi; i++ {
		ni := int32(i)
		off, end := t.slabOff[ni], t.slabOff[ni+1]
		gx, gy := t.slabGX[off:end], t.slabGY[off:end]
		n := 0
		if t.Nets.Timed(ni) {
			net := &d.Nets[ni]
			t.Nets.Steiner(t.G, ni, &tree)
			t.Nets.RC(ni, &rc)
			n = tree.NumNodes()
			gDelay := t.nodeGDelay[base : base+n]
			gImpSq := t.nodeGImpSq[base : base+n]
			for k, pid := range net.Pins {
				gDelay[k] = t.gDelay[pid]
				gImpSq[k] = t.gImpulseSq[pid]
			}
			for j := len(net.Pins); j < n; j++ {
				gDelay[j], gImpSq[j] = 0, 0
			}
			rc.BackwardInto(gr, gDelay, gImpSq, t.gLoad[net.Driver])
			cx, cy := t.slabCellX[off:end], t.slabCellY[off:end]
			for j := 0; j < n; j++ {
				gx[j], cx[j] = gr.X[j], t.pinCell[net.Pins[tree.XPin[j]]]
				gy[j], cy[j] = gr.Y[j], t.pinCell[net.Pins[tree.YPin[j]]]
			}
		}
		for j := n; j < len(gx); j++ {
			gx[j], gy[j] = 0, 0
		}
	}
}

// backwardGroup runs the reverse kernel over the pins of single-writer
// group k of the current level.
//
//dtgp:hotpath
func (t *Timer) backwardGroup(k int32) {
	pins := t.groupPins[t.groupOff[k]:t.groupOff[k+1]]
	if k < t.curNetEnd {
		for _, pid := range pins {
			t.backwardNetSink(pid)
		}
	} else {
		for _, pid := range pins {
			t.backwardCellOut(pid)
		}
	}
}

// backwardNetSink applies Eq. 10 for every sink transition of a pin. An
// adjoint component that is exactly zero does not propagate; a NaN one
// does.
//
//dtgp:hotpath
//dtgp:backward(netprop)
//dtgp:index pid=pin
func (t *Timer) backwardNetSink(pid int32) {
	driver := t.Wires.Driver[pid]
	if driver < 0 {
		return
	}
	for tr := timing.Rise; tr <= timing.Fall; tr++ {
		u, v := timing.TIdx(driver, tr), timing.TIdx(pid, tr)
		if !t.Valid[v] || !t.Valid[u] {
			continue
		}
		gat, gsl := t.gAT[v], t.gSlew[v]
		doAT, doSL := gat != 0, gsl != 0
		if !doAT && !doSL {
			continue
		}
		if doAT {
			// Eq. 10a/10b.
			t.gAT[u] += gat
			t.gDelay[pid] += gat
		}
		// Eq. 10c/10d; Slew(v) ≥ Slew(u) > 0 for valid pins, but guard
		// against a degenerate zero slew anyway.
		if sv := t.Slew[v]; doSL && sv > 1e-9 {
			t.gSlew[u] += t.Slew[u] / sv * gsl
			t.gImpulseSq[pid] += gsl / (2 * sv)
		}
	}
}

// backwardCellOut applies Eq. 12 for every output transition of a pin by
// replaying the cell-arc tape in candidate order: multiply-adds only, no
// table lookup or exponential. As in backwardNetSink, a zero arrival
// adjoint leaves the delay-LUT partials zero, and a zero slew adjoint the
// transition-LUT partials.
//
//dtgp:hotpath
//dtgp:backward(cellarc)
//dtgp:index pid=pin
func (t *Timer) backwardCellOut(pid int32) {
	g := t.G
	netID := g.D.Pins[pid].Net
	for outTr := timing.Rise; outTr <= timing.Fall; outTr++ {
		v := timing.TIdx(pid, outTr)
		lo, end := g.CandOff[v], g.CandOff[v+1]
		if lo == end || t.slotIn[lo] < 0 {
			continue // no valid candidate, so v is invalid
		}
		gat, gsl := t.gAT[v], t.gSlew[v]
		doAT, doSL := gat != 0, gsl != 0
		if !doAT && !doSL {
			continue
		}
		for k := lo; k < end; k++ {
			u := t.slotIn[k]
			if u < 0 {
				break
			}
			var gA, gS, dDds, dSds, dDdl, dSdl float64
			if doAT {
				// Eq. 12a/12b: arrival candidates.
				gA = t.slotWAT[k] * gat
				t.gAT[u] += gA
				dDds, dDdl = t.slotDelayDS[k], t.slotDelayDL[k]
			}
			if doSL {
				// Eq. 12c: slew candidates.
				gS = t.slotWSlew[k] * gsl
				dSds, dSdl = t.slotSlewDS[k], t.slotSlewDL[k]
			}
			// Eq. 12d: input slew via both LUTs.
			t.gSlew[u] += dDds*gA + dSds*gS
			// Eq. 12e: output load via both LUTs. pid is its net's
			// driver (netlist.Validate allows one output pin per net).
			if netID >= 0 {
				t.gLoad[pid] += dDdl*gA + dSdl*gS
			}
		}
	}
}

// badFloat reports NaN or ±Inf.
//
//dtgp:hotpath
func badFloat(x float64) bool {
	return math.IsNaN(x) || math.IsInf(x, 0)
}

// HealthScan counts non-finite values in the timer's forward state (AT and
// slew of valid pins — invalid pins hold −Inf sentinels by design), the
// per-cell location gradients, and the smoothed objective values. The run
// supervisor calls it once per iteration while the timing objective is
// active: a non-zero count means a LUT extrapolation or Elmore blow-up
// poisoned the pass and the iterate must not be trusted. Read-only and
// allocation-free.
//
//dtgp:hotpath
func (t *Timer) HealthScan() int {
	bad := 0
	for i, ok := range t.Valid {
		if !ok {
			continue
		}
		if badFloat(t.AT[i]) || badFloat(t.Slew[i]) {
			bad++
		}
	}
	for i := range t.CellGradX {
		if badFloat(t.CellGradX[i]) || badFloat(t.CellGradY[i]) {
			bad++
		}
	}
	if badFloat(t.SmTNS) || badFloat(t.SmWNS) {
		bad++
	}
	return bad
}

// String summarises the timer state for logs.
func (t *Timer) String() string {
	return fmt.Sprintf("difftimer{γ=%g fence=%d evals=%d smWNS=%.1f smTNS=%.1f}",
		t.Opts.Gamma, t.Opts.FencePeriod, t.evalCount, t.SmWNS, t.SmTNS)
}
