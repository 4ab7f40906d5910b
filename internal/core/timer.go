package core

import (
	"fmt"
	"math"
	"slices"
	"time"

	"dtgp/internal/arena"
	"dtgp/internal/bitset"
	"dtgp/internal/parallel"
	"dtgp/internal/rctree"
	"dtgp/internal/timing"
)

// Options configure the differentiable timer. Evaluation is incremental:
// only nets whose pins moved beyond RefreshEps since their last refresh are
// slid or re-extracted, and the forward sweep recomputes only pins whose
// fan-in changed, with a periodic full-refresh fence (FencePeriod).
type Options struct {
	// Gamma is the LSE smoothing strength (Eq. 5), in ps. The paper sets
	// it "to around 100".
	Gamma float64

	// RefreshEps is the per-pin displacement threshold ε in DBU (Chebyshev
	// distance against the geometry of the net's last refresh) below which
	// a net keeps its cached Steiner/RC state. 0 means any bitwise movement
	// refreshes (exact).
	RefreshEps float64
	// DistortionLimit is the relative pin-bbox half-perimeter change that
	// triggers a per-net Steiner topology rebuild instead of the cheap
	// geometry slide. +Inf disables per-net rebuilds; <= 0 selects the
	// default (0.5). Kept deliberately loose: scattered per-net rebuilds
	// are objective discontinuities mid-descent, so only violently
	// distorted nets rebuild between fences.
	DistortionLimit float64
	// FencePeriod is the Steiner-topology reuse period (§3.6, "every 10
	// iterations"): every FencePeriod evaluations a full-refresh fence
	// re-extracts every moved net's Steiner and RC trees and runs the full
	// forward sweep, bounding drift from skipped sub-ε movement. Between
	// fences stored Steiner points ride along with their pins. <= 0
	// selects the default (10).
	FencePeriod int
	// PropagateEps is the forward change-damping threshold: a recomputed
	// pin whose AT/slew/hard-AT all changed by at most PropagateEps does
	// not dirty its fanout. 0 propagates any bitwise change (exact).
	PropagateEps float64

	// SparseBackward enables the cone-restricted backward pass: adjoints
	// are seeded only at the TopK most critical endpoints (per-domain
	// quota), propagated through their transitive fan-in cones, and the
	// contributions of unselected endpoints are carried forward as a
	// decaying stale-gradient term (ConeDecay). The zero value runs the
	// exact full backward on every evaluation.
	SparseBackward bool
	// TopK is the endpoint budget of the sparse backward. <= 0 selects the
	// default max(16, endpoints/8).
	TopK int
	// ConeDecay is the stale-gradient reuse factor in [0, 0.95]: each
	// sparse pass emits coneGrad + ConeDecay·stale and stores the result
	// as the next stale term, so non-cone endpoint contributions fade
	// geometrically instead of vanishing abruptly. 0 uses pure cone
	// gradients; values are clamped to 0.95.
	ConeDecay float64
	// ConePrune is the relative adjoint deadband of the sparse sweep: a
	// pin whose ∂f/∂AT and ∂f/∂slew are both below ConePrune times the
	// largest seeded adjoint magnitude does not propagate further. The LSE
	// spreads a conserved adjoint mass over exponentially many fan-in
	// paths, so per-pin magnitudes decay geometrically with depth and the
	// deadband confines the reverse sweep to the dominant sub-cone. 0
	// disables pruning (pure structural cones); values are clamped to 0.1.
	// Ignored by the full pass, which stays exact.
	ConePrune float64

	// Arena backs the timer's large SoA buffers (forward state, cell-arc
	// tape, the wire view and its adjoints, gradients, CSR group storage,
	// level buckets) and the per-net Steiner/RC buffers with chunked slab
	// storage (DESIGN.md §13). The placer passes the arena its netlist was
	// compacted into; nil makes NewTimer carve its own, sized by
	// arena.ChunkSize.
	Arena *arena.Arena
}

// DefaultOptions mirrors the paper's §4 hyperparameters: ε = 0.5 DBU, 50%
// distortion rebuild, a fence every 10 evaluations (the paper's Steiner
// reuse period), and a 1 fs propagation deadband so sub-resolution arrival
// jitter does not re-dirty the whole downstream cone.
func DefaultOptions() Options {
	return Options{
		Gamma:           100,
		RefreshEps:      0.5,
		DistortionLimit: 0.5,
		FencePeriod:     10,
		PropagateEps:    1e-3,
		SparseBackward:  true,
		TopK:            0, // auto: max(16, endpoints/8)
		ConeDecay:       0.5,
		ConePrune:       1e-3,
	}
}

// PhaseTimes accumulates wall-clock nanoseconds per Evaluate phase, split so
// benchmarks can report forward, cone-build and backward cost separately.
type PhaseTimes struct {
	// ForwardNS covers net refresh, Elmore forward and the level sweep.
	ForwardNS int64
	// ConeBuildNS covers endpoint selection and cone marking (sparse mode).
	ConeBuildNS int64
	// BackwardNS covers seeding, the reverse sweep, Elmore backward and the
	// Fig. 4 redistribution (excluding ConeBuildNS).
	BackwardNS int64
}

// epState is the per-endpoint slack state of one objective evaluation.
type epState struct {
	s    [2]float64 // per transition slack (smoothed ATs)
	hard [2]float64 // hard-AT slack estimate
	ok   [2]bool
	sEp  float64
	wTr  [2]float64
}

// bwdGroup is one single-writer unit of the reverse sweep: the net-sink
// pins of one net, or the output pins of one cell, within one level. pins
// is a window into the timer's groupPins slab (see buildGroups); the struct
// itself carries a slice header, so []bwdGroup stays on the GC heap.
type bwdGroup struct {
	pins  []int32 //dtgp:index elem=pin
	isNet bool
}

// fwdSpan is one entry of the locality-aware forward schedule: the level
// range [lo, hi). A fused span runs its levels serially inline; an unfused
// span is a single large level dispatched on the pool in guided tiles.
type fwdSpan struct {
	lo, hi int32 //dtgp:index domain=level
	fused  bool
}

// fwdTileGrain is the minimum guided-chunk size for large forward levels,
// in pins. Each pin's kernel touches a handful of SoA arrays at 2·pid, so
// ~512 consecutive pins are a few cache-resident KB per array — large
// enough to amortise chunk claiming, small enough to load-balance the
// LUT-heavy tail.
const fwdTileGrain = 512

// fuseMaxLevel is the level size below which the pool would run the level
// serially anyway (parallel cutoff minParallelWork / CostHeavy = 2^15/512).
// Runs of such levels are fused into one serial span: same execution, no
// per-level dispatch barrier.
const fuseMaxLevel = 64

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
	// bbox distortion, coordinate-refreshed otherwise.
	Nets []timing.NetState //dtgp:index domain=net
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
	// forwardCellOut. The LSE candidates of cell-output tnode v occupy the
	// slots from slotOff[v], in fan-in order; the window up to slotOff[v+1]
	// is sized for every candidate, and a slotIn of -1 ends it early when
	// some inputs are invalid. Each slot holds the input tnode, the arrival
	// and slew LSE weights (divided by their partition sums) and the
	// delay- and transition-LUT slopes in input slew and output load.
	slotOff                  []int32   //dtgp:index domain=tnode elem=arcslot
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
	// sink adjoints (worker w owns the w-th window).
	nodeGDelay, nodeGImpSq []float64
	maxNodes               int
	// pinCell[p] is the cell of pin p, for the Fig. 4 redistribution.
	pinCell []int32 //dtgp:index domain=pin elem=cell
	// netGrads are persistent per-net Elmore gradient buffers reused by
	// BackwardInto; netGradUsed marks nets whose buffers hold this pass's
	// gradients.
	netGrads    []*rctree.Grad //dtgp:index domain=net
	netGradUsed []bool         //dtgp:index domain=net
	// pruneAbs is the adjoint deadband of the current reverse sweep: a pin
	// adjoint component with magnitude <= pruneAbs does not propagate. It
	// is 0 in the full pass, so only exact zeros stop there, and ConePrune
	// times the largest seeded adjoint in a sparse pass.
	pruneAbs float64
	// Touched-net tracking: the reverse kernels flag the nets whose
	// interconnect adjoints they wrote (sink side and driver side have
	// distinct single-writer groups, hence two flag arrays); touchedNets
	// lists them for the Elmore backward and the Fig. 4 redistribution — in
	// net order in the full pass, in cone order in a sparse pass.
	netTouchedSink []bool  //dtgp:index domain=net
	netTouchedDrv  []bool  //dtgp:index domain=net
	touchedNets    []int32 //dtgp:index elem=net

	// Outputs of Evaluate.
	CellGradX, CellGradY []float64 //dtgp:index domain=cell
	// SmTNS/SmWNS are the smoothed objective values TNS_γ, WNS_γ;
	// EstTNS/EstWNS are hard-max estimates from the same pass.
	SmTNS, SmWNS   float64
	EstTNS, EstWNS float64

	evalCount int

	// Precomputed structure.
	// bwdGroups holds, per level, the single-writer units of the reverse
	// sweep: net-sink pins grouped by net first, then cell-output pins
	// grouped by cell (the write sets are disjoint: net groups update
	// driver pins and their own sinks' adjoints, cell groups update
	// cell-input pins and their own outputs' load adjoints, so both kinds
	// run in one parallel phase per level). Storage is CSR-style: every
	// group's pin list is a window into the groupPins slab and the
	// per-level group slices are windows into one flat group array — the
	// jagged shape is only in the slice headers.
	bwdGroups [][]bwdGroup //dtgp:index domain=level
	groupPins []int32      //dtgp:index elem=pin
	// fwdSpans is the locality-aware forward schedule: maximal runs of
	// consecutive small levels are fused into one serial span (they are
	// below the pool's parallel cutoff, so fusing removes per-level
	// dispatch barriers without changing what runs where), and each large
	// level is dispatched on the pool in cache-sized contiguous tiles.
	fwdSpans []fwdSpan
	// Start pins and their constraint-derived AT/slew, fixed per design
	// (startAT/startSlew are positional companions of startPins).
	startPins          []int32 //dtgp:index elem=pin
	startAT, startSlew []float64

	// Stored kernel closures. They are built once in NewTimer and capture
	// only the receiver; per-call state is passed through the cur* fields,
	// keeping the steady state free of closure allocations.
	curLevel   []int32 //dtgp:index elem=pin
	curBwd     []bwdGroup
	fwdFn      func(w, lo, hi int)
	bwdFn      func(i int)
	elmoreFn   func(w, lo, hi int)
	fwdNetsFn  func(w, lo, hi int)
	fenceFn    func(w, lo, hi int)
	resetTasks []func()

	// Incremental-evaluation state. netMoved is the per-net movement flag
	// written by the parallel scan (single writer per index), compacted into
	// dirtyNets; pinDirty marks pins whose fan-in changed, bucketed by level
	// into levelBuckets (dirtyCount tracks the outstanding total so the
	// sweep can stop once the cone dies out); pinChanged is the per-pin
	// "outputs changed" flag written by the level kernel. fullPass records
	// that the current evaluation refreshed everything (first build, fence,
	// or the dirty-density cutoff), so the forward sweep must run in full.
	netMoved      []bool  //dtgp:index domain=net
	dirtyNets     []int32 //dtgp:index elem=net
	pinDirty      bitset.Set
	pinChanged    []bool    //dtgp:index domain=pin
	levelBuckets  [][]int32 //dtgp:index domain=level
	dirtyCount    int
	curWork       []int32 //dtgp:index elem=pin
	compactor     *parallel.Compactor
	fullPass      bool
	netMovedFn    func(w, lo, hi int)
	refreshLazyFn func(w, lo, hi int)
	fwdIncFn      func(w, lo, hi int)
	// scratch is the per-worker Steiner/RC build scratch of fenceFn and
	// refreshLazyFn, indexed by the worker id the pool passes them.
	scratch []timing.BuildScratch

	// Objective scratch. wnsM/wnsZ are the shift and partition value of the
	// inline endpoint softmin, stored so the sparse seeding can renormalise
	// over a subset with the same shifted form.
	epStates []epState //dtgp:index domain=endp
	sEps     []float64
	epIdx    []int32 //dtgp:index elem=endp
	wnsM     float64
	wnsZ     float64

	// Sparse backward state (Opts.SparseBackward); nil in full mode.
	sb *sparseState

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
	if opts.PropagateEps < 0 {
		opts.PropagateEps = 0
	}
	if opts.SparseBackward {
		if opts.ConeDecay < 0 {
			opts.ConeDecay = 0
		}
		if opts.ConeDecay > 0.95 {
			opts.ConeDecay = 0.95
		}
		if opts.ConePrune < 0 {
			opts.ConePrune = 0
		}
		if opts.ConePrune > 0.1 {
			opts.ConePrune = 0.1
		}
	}
	// The big per-tnode/per-net/per-cell SoA arrays carve from the arena.
	// Slices of pointer-bearing types (netGrads, epStates) stay on the GC
	// heap by construction: the arena's type set rejects them.
	if opts.Arena == nil {
		opts.Arena = arena.New(arena.ChunkSize(len(g.D.Cells)))
	}
	a := opts.Arena
	nPins := len(g.D.Pins)
	n2 := 2 * nPins
	nNets := len(g.D.Nets)
	t := &Timer{
		G:    g,
		Opts: opts,
		Wires: timing.NewWires(arena.Make[int32](a, nPins), arena.Make[float64](a, nPins),
			arena.Make[float64](a, nPins), arena.Make[float64](a, nPins)),
		AT:             arena.Make[float64](a, n2),
		Slew:           arena.Make[float64](a, n2),
		Valid:          arena.Make[bool](a, n2),
		HardAT:         arena.Make[float64](a, n2),
		gAT:            arena.Make[float64](a, n2),
		gSlew:          arena.Make[float64](a, n2),
		gDelay:         arena.Make[float64](a, nPins),
		gImpulseSq:     arena.Make[float64](a, nPins),
		gLoad:          arena.Make[float64](a, nPins),
		pinCell:        arena.Make[int32](a, nPins),
		netGrads:       make([]*rctree.Grad, nNets),
		netGradUsed:    arena.Make[bool](a, nNets),
		netTouchedSink: arena.Make[bool](a, nNets),
		netTouchedDrv:  arena.Make[bool](a, nNets),
		touchedNets:    arena.MakeCap[int32](a, 0, nNets),
		CellGradX:      arena.Make[float64](a, len(g.D.Cells)),
		CellGradY:      arena.Make[float64](a, len(g.D.Cells)),
		epStates:       make([]epState, len(g.Endpoints)),
	}
	for pi := range g.D.Pins {
		t.pinCell[pi] = g.D.Pins[pi].Cell
	}
	for ni := range g.D.Nets {
		t.maxNodes = max(t.maxNodes, g.MaxTreeNodes(int32(ni)))
	}
	t.nodeGDelay = arena.Make[float64](a, parallel.Workers()*t.maxNodes)
	t.nodeGImpSq = arena.Make[float64](a, parallel.Workers()*t.maxNodes)
	t.buildTape()
	t.buildGroups()
	t.buildSchedule()
	t.buildStartPins()
	t.buildKernels()
	t.buildIncState()
	if opts.SparseBackward {
		t.buildSparseState()
	}
	return t
}

// Reanchor resets the evaluation cadence so the next Evaluate runs the
// full-refresh fence: every bitwise-moved net is re-extracted, the forward
// sweep recomputes every pin and so rewrites the whole cell-arc tape, and
// (in sparse mode) the backward pass is the exact full sweep, whose
// gradients noteFull copies into the stale-gradient memory. After that
// evaluation the timer's observable behaviour — outputs and all subsequent
// evaluations — is bitwise identical to a freshly constructed timer
// evaluated at the same cell positions, because every piece of
// history-dependent state (net geometry vs. last refresh, fence phase, the
// tape, stale sparse gradients, cached cone marks) is either rebuilt from
// the current positions or a pure structural function of the seed selection.
//
// Between fences the tape is history-dependent by design: a pin that an
// incremental forward skips (its inputs moved by at most PropagateEps)
// keeps the slots of its last recomputation, and the reverse sweep
// differentiates that recorded forward. With PropagateEps 0 every moved
// input is recomputed, and the tape always matches the current state.
//
// The durable-checkpoint path calls this after every committed save, in the
// original run and in resumed runs alike, which is what makes
// kill-at-any-checkpoint + resume bit-identical to the uninterrupted run: a
// resumed run's fresh timer and the original run's re-anchored warm timer
// start their next evaluation from equal state.
func (t *Timer) Reanchor() { t.evalCount = 0 }

// Cone returns the sparse-backward statistics (zero value in full mode).
func (t *Timer) Cone() ConeStats {
	if t.sb == nil {
		return ConeStats{}
	}
	return t.sb.stats
}

// buildIncState allocates the dirty-tracking buffers up front so the
// incremental steady state never grows them.
func (t *Timer) buildIncState() {
	g := t.G
	a := t.Opts.Arena
	t.netMoved = arena.Make[bool](a, len(g.D.Nets))
	t.dirtyNets = arena.Make[int32](a, len(g.D.Nets))
	t.pinChanged = arena.Make[bool](a, len(g.D.Pins))
	t.pinDirty.Grow(len(g.D.Pins))
	t.buildLevelBuckets()
	t.compactor = parallel.NewCompactor(4 * parallel.Workers())
	t.scratch = timing.NewBuildScratch()
}

// buildLevelBuckets carves every level's dirty bucket out of one slab sized
// by the levelisation in a single pass: bucket k is a zero-length window of
// capacity len(Levels[k]) (a bucket can never exceed its level), so the
// per-level make calls of the old build collapse to one slab carve plus the
// outer slice of windows, with zero steady-state growth. Pinned by an
// AllocsPerRun guard in timer_alloc_test.go.
func (t *Timer) buildLevelBuckets() {
	g := t.G
	total := 0
	for _, level := range g.Levels {
		total += len(level)
	}
	slab := arena.Make[int32](t.Opts.Arena, total) //dtgp:index elem=pin
	t.levelBuckets = make([][]int32, len(g.Levels))
	off := 0
	for k, level := range g.Levels {
		t.levelBuckets[k] = slab[off : off : off+len(level)]
		off += len(level)
	}
}

// buildTape carves the cell-arc tape: each cell-output tnode gets one slot
// per (arc, input transition) candidate of its output transition, whether
// or not the input is valid, so the windows never move.
func (t *Timer) buildTape() {
	g := t.G
	a := t.Opts.Arena
	t.slotOff = arena.Make[int32](a, 2*len(g.D.Pins)+1)
	var n int32 //dtgp:index domain=arcslot
	for pi := range g.D.Pins {
		pid := int32(pi)
		for tr := timing.Rise; tr <= timing.Fall; tr++ {
			t.slotOff[timing.TIdx(pid, tr)] = n
			for ai := range g.ArcsInto[pid] {
				for _, inTr := range timing.InputTransitions(g.ArcsInto[pid][ai].Arc.Unate, tr) {
					if inTr >= 0 {
						n++
					}
				}
			}
		}
	}
	t.slotOff[2*len(g.D.Pins)] = n
	t.slotIn = arena.Make[int32](a, int(n))
	t.slotWAT = arena.Make[float64](a, int(n))
	t.slotWSlew = arena.Make[float64](a, int(n))
	t.slotDelayDS = arena.Make[float64](a, int(n))
	t.slotDelayDL = arena.Make[float64](a, int(n))
	t.slotSlewDS = arena.Make[float64](a, int(n))
	t.slotSlewDL = arena.Make[float64](a, int(n))
}

// buildGroups lays the reverse-sweep groups out in CSR form: one global
// groupPins slab holds every grouped pin, one flat []bwdGroup holds every
// group, and bwdGroups[li] is a window into it. Two passes over the
// levelisation — count, then fill — replace the per-level maps of the old
// jagged build with epoch-stamped direct-indexed scratch; group order is
// unchanged (per level: nets in first-seen pin order, then cells in
// first-seen pin order, each group's pins in level order), so the parallel
// schedule and every serial fallback order are bit-identical.
func (t *Timer) buildGroups() {
	g := t.G
	d := g.D
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
	levelBase := make([]int32, nLevels+1) // group id of each level's first group
	netGroupsOf := make([]int32, nLevels) // net-group count per level
	netScratch := make([]int32, 0, 64)    // per-level net-group sizes
	cellScratch := make([]int32, 0, 64)   // per-level cell-group sizes
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
		levelBase[li] = int32(len(sizes))
		netGroupsOf[li] = int32(len(netScratch))
		sizes = append(sizes, netScratch...)
		sizes = append(sizes, cellScratch...)
	}
	totalGroups := len(sizes)
	levelBase[nLevels] = int32(totalGroups)

	// Prefix-sum the group sizes into slab offsets.
	offsets := make([]int32, totalGroups+1)
	for i, n := range sizes {
		offsets[i+1] = offsets[i] + n
	}
	totalPins := int(offsets[totalGroups])

	t.groupPins = arena.Make[int32](t.Opts.Arena, totalPins)
	groups := make([]bwdGroup, totalGroups) // slice headers → GC heap
	t.bwdGroups = make([][]bwdGroup, nLevels)
	fill := sizes // reuse as per-group fill cursors
	for i := range fill {
		fill[i] = 0
	}

	// Pass 2: place each grouped pin at its slab position.
	for li, level := range g.Levels {
		stamp := int32(nLevels + li)
		base := levelBase[li]
		nNet := netGroupsOf[li]
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
				gi = base + nNet + cellIdxOf[ci]
			}
			if gi >= 0 {
				t.groupPins[offsets[gi]+fill[gi]] = pid
				fill[gi]++
			}
		}
		for k := base; k < levelBase[li+1]; k++ {
			lo, hi := offsets[k], offsets[k+1]
			groups[k] = bwdGroup{
				pins:  t.groupPins[lo:hi:hi],
				isNet: k-base < nNet,
			}
		}
		t.bwdGroups[li] = groups[base:levelBase[li+1]:levelBase[li+1]]
	}
}

// buildSchedule precomputes the forward span list; see fwdSpan.
func (t *Timer) buildSchedule() {
	levels := t.G.Levels
	for li := 0; li < len(levels); {
		if len(levels[li]) < fuseMaxLevel {
			j := li + 1
			for j < len(levels) && len(levels[j]) < fuseMaxLevel {
				j++
			}
			t.fwdSpans = append(t.fwdSpans, fwdSpan{lo: int32(li), hi: int32(j), fused: true})
			li = j
		} else {
			t.fwdSpans = append(t.fwdSpans, fwdSpan{lo: int32(li), hi: int32(li + 1)})
			li++
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
	t.bwdFn = func(i int) { t.backwardGroup(&t.curBwd[i]) }
	t.elmoreFn = t.elmoreBackward
	t.fwdNetsFn = func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			timing.ForwardNet(t.G, &t.Nets[i], &t.Wires)
		}
	}
	t.fenceFn = func(w, lo, hi int) {
		for i := lo; i < hi; i++ {
			timing.RebuildNetStateMoved(t.G, &t.Nets[i], &t.Wires, &t.scratch[w])
		}
	}
	t.netMovedFn = func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			t.netMoved[i] = timing.NetMoved(t.G, &t.Nets[i], t.Opts.RefreshEps)
		}
	}
	t.refreshLazyFn = func(w, lo, hi int) {
		for i := lo; i < hi; i++ {
			ns := &t.Nets[t.dirtyNets[i]]
			timing.RefreshNetStateLazy(t.G, ns, t.Opts.DistortionLimit, &t.scratch[w])
			timing.ForwardNet(t.G, ns, &t.Wires)
		}
	}
	t.fwdIncFn = func(_, lo, hi int) {
		g := t.G
		for i := lo; i < hi; i++ {
			pid := t.curWork[i]
			switch {
			case g.IsStart[pid]:
			case g.IsNetSink[pid]:
				t.forwardNetSinkInc(pid)
			case g.IsCellOut[pid]:
				t.forwardCellOutInc(pid)
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
			for i := range t.netGradUsed {
				t.netGradUsed[i] = false
			}
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
// forward passes (Fig. 3 stages 1-2). It is displacement-driven: a parallel
// scan flags nets whose pins moved beyond RefreshEps against the geometry of
// their last refresh, the flags are compacted into dirtyNets, and only those
// nets get the lazy refresh-or-rebuild plus Elmore forward. The first
// evaluation and every FencePeriod-th evaluation instead refresh everything
// (the fence that bounds sub-ε drift).
//
//dtgp:hotpath
func (t *Timer) refreshNets() {
	if t.Nets == nil {
		t.Nets = timing.BuildNetStatesArena(t.G, t.Opts.Arena)
		t.evalCount++
		parallel.ForGuided(len(t.Nets), 16, parallel.CostDefault, t.fwdNetsFn)
		t.fullPass = true
		return
	}
	if t.evalCount%t.Opts.FencePeriod == 0 {
		// Moved-only fence: nets that are bitwise unchanged since their
		// last full extraction already hold exactly the state a rebuild
		// would produce, so only changed nets are re-extracted (and
		// forwarded inside the same sweep). Bit-identical to the full
		// rebuild, but O(moved nets) in a converging placement.
		parallel.ForGuided(len(t.Nets), 8, parallel.CostHeavy, t.fenceFn)
		t.evalCount++
		t.fullPass = true
		return
	}
	t.evalCount++
	parallel.ForGuided(len(t.Nets), 16, parallel.CostLight, t.netMovedFn)
	t.dirtyNets = t.compactor.CompactBool(t.dirtyNets, t.netMoved, parallel.CostTrivial)
	parallel.ForGuided(len(t.dirtyNets), 4, parallel.CostHeavy, t.refreshLazyFn)
	// Dirty-density cutoff: when most nets moved, the plain full sweep is
	// cheaper than dirty bookkeeping (and bit-identical — it recomputes
	// every pin from the same refreshed RC state).
	t.fullPass = 4*len(t.dirtyNets) >= len(t.Nets)
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
	t.Phase.ForwardNS += time.Since(start).Nanoseconds()
	return t.backward(t1, t2)
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
	if !t.fullPass {
		t.forwardIncremental()
		return
	}
	ninf := math.Inf(-1)
	for i := range t.AT {
		t.AT[i] = ninf
		t.HardAT[i] = ninf
		t.Slew[i] = 0
		t.Valid[i] = false
	}

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

	// Walk the precomputed span schedule: fused spans of small levels run
	// serially inline (no dispatch barrier per level), large levels are
	// dispatched in cache-sized contiguous tiles. Level pin lists are in
	// ascending pin order (the levelisation appends pins in index order),
	// so tiles touch the SoA arrays in memory order. Cell-output pins do
	// several LUT evaluations each, hence CostHeavy.
	for _, sp := range t.fwdSpans {
		if sp.fused {
			for li := sp.lo; li < sp.hi; li++ {
				t.curLevel = t.G.Levels[li]
				t.fwdFn(0, 0, len(t.curLevel))
			}
			continue
		}
		t.curLevel = t.G.Levels[sp.lo]
		parallel.ForGuided(len(t.curLevel), fwdTileGrain, parallel.CostHeavy, t.fwdFn)
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
// for backwardCellOut. Each LUT is evaluated once, with its slopes; the
// weight columns first hold the candidate arrival and slew, then their
// shifted exponentials, then the normalised weights; the kernel writes
// each slot before reading it, so those reads are not inputs. HardAT is the
// hard (non-smoothed) arrival, deliberately not differentiated.
//
//dtgp:hotpath
//dtgp:forward(cellarc)
//dtgp:nondiff(HardAT, slotWAT, slotWSlew)
//dtgp:index pid=pin
func (t *Timer) forwardCellOut(pid int32) {
	g := t.G
	gamma := t.Opts.Gamma
	load := t.Wires.Load[pid]
	for outTr := timing.Rise; outTr <= timing.Fall; outTr++ {
		v := timing.TIdx(pid, outTr)
		lo, end := t.slotOff[v], t.slotOff[v+1]
		hi := lo
		for ai := range g.ArcsInto[pid] {
			ar := &g.ArcsInto[pid][ai]
			dl, tl := timing.DelayTables(ar.Arc, outTr)
			for _, inTr := range timing.InputTransitions(ar.Arc.Unate, outTr) {
				if inTr < 0 {
					continue
				}
				u := timing.TIdx(ar.FromPin, timing.Transition(inTr))
				if !t.Valid[u] {
					continue
				}
				d, dDds, dDdl := dl.EvalGrad(t.Slew[u], load)
				s, dSds, dSdl := tl.EvalGrad(t.Slew[u], load)
				t.slotIn[hi] = u
				t.slotWAT[hi], t.slotWSlew[hi] = t.AT[u]+d, s
				t.slotDelayDS[hi], t.slotDelayDL[hi] = dDds, dDdl
				t.slotSlewDS[hi], t.slotSlewDL[hi] = dSds, dSdl
				hi++
			}
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

// forwardIncremental is the dirty-set forward sweep. It seeds every pin of
// every refreshed net (sinks see new delays/impulses, the driver a new
// load), then walks the level buckets in order, recomputing only dirty pins
// and expanding the fanout of pins whose outputs actually changed. All
// persistent forward state (AT/Slew/Valid/HardAT and the cell-arc tape)
// carries over from the previous evaluation, so clean pins keep
// bit-identical values without being touched. Fanout expansion is
// done serially between levels (fanouts live at strictly deeper levels, so
// one pass per level suffices and a processed pin can never be re-dirtied);
// the recomputation itself runs on the pool. Work is proportional to the
// dirty cone: levels outside it are skipped via their empty buckets, and
// the sweep stops as soon as the outstanding count hits zero.
//
//dtgp:hotpath
func (t *Timer) forwardIncremental() {
	d := t.G.D
	for _, ni := range t.dirtyNets {
		for _, pid := range d.Nets[ni].Pins {
			t.markDirty(pid)
		}
	}
	for li := range t.levelBuckets {
		if t.dirtyCount == 0 {
			break
		}
		bucket := t.levelBuckets[li]
		if len(bucket) == 0 {
			continue
		}
		// Buckets fill in fanout-discovery order; sorting restores memory
		// order for the SoA reads (values are order-independent: each
		// kernel writes only its own pin). Guided tiles then mirror the
		// full sweep's locality-aware dispatch.
		slices.Sort(bucket)
		t.curWork = bucket
		parallel.ForGuided(len(bucket), fwdTileGrain, parallel.CostHeavy, t.fwdIncFn)
		t.dirtyCount -= len(bucket)
		for _, pid := range bucket {
			t.pinDirty.Remove(pid)
			if !t.pinChanged[pid] {
				continue
			}
			t.pinChanged[pid] = false
			t.markFanouts(pid)
		}
		t.levelBuckets[li] = bucket[:0]
	}
}

// markDirty queues pid for recomputation in its level's bucket (once).
//
//dtgp:hotpath
//dtgp:index pid=pin
func (t *Timer) markDirty(pid int32) {
	if t.pinDirty.TryAdd(pid) {
		li := t.G.Level[pid]
		t.levelBuckets[li] = append(t.levelBuckets[li], pid)
		t.dirtyCount++
	}
}

// changedBeyond reports whether any of the three forward quantities moved by
// more than eps. −Inf→−Inf (unreachable stays unreachable) compares as NaN
// and correctly reads as unchanged; −Inf→finite is +Inf and propagates.
//
//dtgp:hotpath
func changedBeyond(eps, a0, a1, b0, b1, c0, c1 float64) bool {
	return math.Abs(a1-a0) > eps || math.Abs(b1-b0) > eps || math.Abs(c1-c0) > eps
}

// forwardNetSinkInc recomputes one dirty net-sink pin by delegating to the
// full kernel (forwardNetSink), then flags the pin as changed when its
// outputs moved beyond PropagateEps. Wrapping the tagged kernel keeps a
// single numeric implementation, so incremental and full sweeps are
// bit-identical by construction.
//
//dtgp:hotpath
//dtgp:index pid=pin
func (t *Timer) forwardNetSinkInc(pid int32) {
	r, f := timing.TIdx(pid, timing.Rise), timing.TIdx(pid, timing.Fall)
	atR, slR, haR := t.AT[r], t.Slew[r], t.HardAT[r]
	atF, slF, haF := t.AT[f], t.Slew[f], t.HardAT[f]
	t.forwardNetSink(pid)
	eps := t.Opts.PropagateEps
	if changedBeyond(eps, atR, t.AT[r], slR, t.Slew[r], haR, t.HardAT[r]) ||
		changedBeyond(eps, atF, t.AT[f], slF, t.Slew[f], haF, t.HardAT[f]) {
		t.pinChanged[pid] = true
	}
}

// forwardCellOutInc is the cell-output counterpart of forwardNetSinkInc.
//
//dtgp:hotpath
//dtgp:index pid=pin
func (t *Timer) forwardCellOutInc(pid int32) {
	r, f := timing.TIdx(pid, timing.Rise), timing.TIdx(pid, timing.Fall)
	atR, slR, haR := t.AT[r], t.Slew[r], t.HardAT[r]
	atF, slF, haF := t.AT[f], t.Slew[f], t.HardAT[f]
	t.forwardCellOut(pid)
	eps := t.Opts.PropagateEps
	if changedBeyond(eps, atR, t.AT[r], slR, t.Slew[r], haR, t.HardAT[r]) ||
		changedBeyond(eps, atF, t.AT[f], slF, t.Slew[f], haF, t.HardAT[f]) {
		t.pinChanged[pid] = true
	}
}

// markFanouts dirties every pin whose forward value reads pid's outputs:
// the other pins of the net pid drives (if any), and the To pins of the
// cell arcs leaving pid.
//
//dtgp:hotpath
//dtgp:index pid=pin
func (t *Timer) markFanouts(pid int32) {
	g := t.G
	d := g.D
	pin := &d.Pins[pid]
	if ni := pin.Net; ni >= 0 && !g.IsClockNet[ni] && d.Nets[ni].Driver == pid {
		for _, q := range d.Nets[ni].Pins {
			if q != pid {
				t.markDirty(q)
			}
		}
	}
	cell := &d.Cells[pin.Cell]
	if cell.Lib >= 0 {
		lc := &d.Lib.Cells[cell.Lib]
		for ai := range lc.Arcs {
			arc := &lc.Arcs[ai]
			if arc.IsCheck() || cell.Pins[arc.From] != pid {
				continue
			}
			t.markDirty(cell.Pins[arc.To])
		}
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
	t.wnsM, t.wnsZ = wnsM, wnsZ

	f := -t1*smTNS - t2*smWNS
	if seed {
		t.seedEndpoints(t.epIdx, wnsZ, t1, t2)
	}
	return f, true
}

// seedEndpoints spreads ∂f/∂slack of the listed endpoints into gAT and
// gSlew, the seeds of the reverse sweep, with the WNS softmin weights
// normalised by z: the full partition value, or the sparse pass's value
// renormalised over its selected endpoints. slack = RAT − AT with
// RAT = T − setup(clockSlew, Slew), so register seeds chain through the
// setup LUT's slew derivative. Returns the largest seeded |∂f/∂slack|.
//
//dtgp:hotpath
//dtgp:forward(ep-seed)
//dtgp:backward(ep-seed)
//dtgp:index eis=[]endp
func (t *Timer) seedEndpoints(eis []int32, z, t1, t2 float64) float64 {
	g := t.G
	gamma := t.Opts.Gamma
	seedMax := 0.0
	for _, ei := range eis {
		st := &t.epStates[ei]
		if math.IsInf(st.sEp, 1) {
			continue
		}
		ep := &g.Endpoints[ei]
		_, dTNS := SoftNegGrad(gamma, st.sEp)
		wEp := math.Exp((-st.sEp-t.wnsM)/gamma) / z
		dfdsEp := -t1*dTNS - t2*wEp
		for tr := timing.Rise; tr <= timing.Fall; tr++ {
			if !st.ok[tr] {
				continue
			}
			ti := timing.TIdx(ep.Pin, tr)
			dfds := dfdsEp * st.wTr[tr]
			t.gAT[ti] -= dfds
			if m := math.Abs(dfds); m > seedMax {
				seedMax = m
			}
			if ep.Kind == timing.EndFFData && ep.Setup != nil {
				lut := timing.ConstraintTable(ep.Setup.Arc, tr)
				_, _, dRdSlew := lut.EvalGrad(g.ClockSlew(), t.Slew[ti])
				t.gSlew[ti] -= dRdSlew * dfds
			}
		}
	}
	return seedMax
}

// backward dispatches between the sparse cone-restricted pass and the full
// pass, accounting wall-clock time to Phase.BackwardNS either way.
//
//dtgp:hotpath
func (t *Timer) backward(t1, t2 float64) float64 {
	if t.sb != nil {
		return t.backwardSparse(t1, t2)
	}
	b0 := time.Now()
	f := t.backwardFull(t1, t2)
	t.Phase.BackwardNS += time.Since(b0).Nanoseconds()
	return f
}

// backwardFull is the exact backward pass: it seeds every constrained
// endpoint, sweeps the levels in reverse applying Eq. 12 (cell arcs) and
// Eq. 10 (net arcs) with a zero deadband, runs Eq. 8 (Elmore) over the
// nets the sweep wrote, then maps Steiner-node gradients onto cells via pin
// attribution (Fig. 4).
func (t *Timer) backwardFull(t1, t2 float64) float64 {
	g := t.G
	d := g.D

	// Clear the accumulators; independent regions run as pool tasks.
	parallel.Run(t.resetTasks...)

	f, any := t.objective(t1, t2, true)
	if !any {
		if t.sb != nil {
			t.sb.noteFull(t)
		}
		return f
	}

	// Reverse level sweep. Groups keep each fan-in location single-writer:
	// net groups write driver (cell-output) pins and their sinks' adjoints,
	// cell groups write cell-input pins and their outputs' load adjoints —
	// disjoint sets, so both kinds run in one parallel phase per level.
	t.pruneAbs = 0
	for li := len(g.Levels) - 1; li >= 0; li-- {
		t.curBwd = t.bwdGroups[li]
		parallel.ForCost(len(t.curBwd), parallel.CostHeavy, t.bwdFn)
	}

	// Elmore backward per touched net (Eq. 8) into persistent per-net
	// buffers; guided chunking balances the power-law net-size
	// distribution. The list is in net order, so the serial Fig. 4
	// redistribution below accumulates in net-index order and its results
	// are schedule-independent.
	t.touchedNets = t.touchedNets[:0]
	for ni := range t.Nets {
		t.collectTouched(int32(ni))
	}
	parallel.ForGuided(len(t.touchedNets), 4, parallel.CostHeavy, t.elmoreFn)
	for _, ni := range t.touchedNets {
		if !t.netGradUsed[ni] {
			continue
		}
		gr := t.netGrads[ni]
		pins := d.Nets[ni].Pins
		tree := t.Nets[ni].Tree
		for j := 0; j < tree.NumNodes(); j++ {
			if gr.X[j] != 0 {
				t.CellGradX[t.pinCell[pins[tree.XPin[j]]]] += gr.X[j]
			}
			if gr.Y[j] != 0 {
				t.CellGradY[t.pinCell[pins[tree.YPin[j]]]] += gr.Y[j]
			}
		}
	}
	if t.sb != nil {
		t.sb.noteFull(t)
	}
	return f
}

// collectTouched appends net ni to touchedNets when a reverse kernel wrote
// its interconnect adjoints, and clears its touch flags for the next pass.
//
//dtgp:hotpath
//dtgp:index ni=net
func (t *Timer) collectTouched(ni int32) {
	if t.netTouchedSink[ni] || t.netTouchedDrv[ni] {
		t.netTouchedSink[ni], t.netTouchedDrv[ni] = false, false
		t.touchedNets = append(t.touchedNets, ni)
	}
}

// elmoreBackward runs the Elmore backward pass (Eq. 8) for touchedNets[lo:hi]
// into persistent per-net gradient buffers: the batch adjoint of
// timing.ForwardAll, restricted to the nets the reverse sweep wrote. It
// gathers each net's pin-indexed sink adjoints into worker w's node window
// (net pin k is Steiner node k; the driver's entries are 0, as it sinks no
// net, and Steiner points get 0). Bound once as t.elmoreFn so the hot loop
// dispatches without a per-call method value.
//
//dtgp:hotpath
//dtgp:backward(elmore-batch)
func (t *Timer) elmoreBackward(w, lo, hi int) {
	d := t.G.D
	base := w * t.maxNodes
	for _, ni := range t.touchedNets[lo:hi] {
		ns := &t.Nets[ni]
		if ns.Tree == nil {
			continue
		}
		if t.netGrads[ni] == nil {
			t.netGrads[ni] = &rctree.Grad{}
		}
		net := &d.Nets[ni]
		n := ns.Tree.NumNodes()
		gDelay := t.nodeGDelay[base : base+n]
		gImpSq := t.nodeGImpSq[base : base+n]
		for k, pid := range net.Pins {
			gDelay[k] = t.gDelay[pid]
			gImpSq[k] = t.gImpulseSq[pid]
		}
		for j := len(net.Pins); j < n; j++ {
			gDelay[j], gImpSq[j] = 0, 0
		}
		ns.RC.BackwardInto(t.netGrads[ni], gDelay, gImpSq, t.gLoad[net.Driver])
		t.netGradUsed[ni] = true
	}
}

// backwardGroup runs the reverse kernel over the pins of one single-writer
// group.
//
//dtgp:hotpath
func (t *Timer) backwardGroup(grp *bwdGroup) {
	if grp.isNet {
		for _, pid := range grp.pins {
			t.backwardNetSink(pid)
		}
	} else {
		for _, pid := range grp.pins {
			t.backwardCellOut(pid)
		}
	}
}

// backwardNetSink applies Eq. 10 for every sink transition of a pin. An
// adjoint component within the deadband (|g| <= pruneAbs) does not
// propagate: in the full pass only exact zeros stop, and a NaN adjoint
// always propagates. Writing the sink-side touch flag is race-free because
// a net's sinks form exactly one backward group.
//
//dtgp:hotpath
//dtgp:backward(netprop)
//dtgp:index pid=pin
func (t *Timer) backwardNetSink(pid int32) {
	driver := t.Wires.Driver[pid]
	if driver < 0 {
		return
	}
	ni := t.G.NetOfSink[pid]
	eps := t.pruneAbs
	for tr := timing.Rise; tr <= timing.Fall; tr++ {
		u, v := timing.TIdx(driver, tr), timing.TIdx(pid, tr)
		if !t.Valid[v] || !t.Valid[u] {
			continue
		}
		gat, gsl := t.gAT[v], t.gSlew[v]
		doAT, doSL := !(math.Abs(gat) <= eps), !(math.Abs(gsl) <= eps)
		if !doAT && !doSL {
			continue
		}
		t.netTouchedSink[ni] = true
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
// table lookup or exponential. backwardNetSink's deadband applies per
// component: an arrival adjoint within it leaves the delay-LUT partials
// zero, and a slew adjoint within it the transition-LUT partials. Writing
// the driver-side touch flag is race-free because a net's driver pin
// belongs to exactly one backward group.
//
//dtgp:hotpath
//dtgp:backward(cellarc)
//dtgp:index pid=pin
func (t *Timer) backwardCellOut(pid int32) {
	eps := t.pruneAbs
	netID := t.G.D.Pins[pid].Net
	for outTr := timing.Rise; outTr <= timing.Fall; outTr++ {
		v := timing.TIdx(pid, outTr)
		lo, end := t.slotOff[v], t.slotOff[v+1]
		if lo == end || t.slotIn[lo] < 0 {
			continue // no valid candidate, so v is invalid
		}
		gat, gsl := t.gAT[v], t.gSlew[v]
		doAT, doSL := !(math.Abs(gat) <= eps), !(math.Abs(gsl) <= eps)
		if !doAT && !doSL {
			continue
		}
		if netID >= 0 {
			t.netTouchedDrv[netID] = true
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
