package core

import (
	"math"
	"time"

	"dtgp/internal/arena"
	"dtgp/internal/bitset"
	"dtgp/internal/parallel"
)

// ConeStats summarises the sparse backward behaviour of a Timer: how many
// passes ran cone-restricted vs full, and how much of the reverse-sweep work
// the cones covered. Read it via Timer.Cone.
type ConeStats struct {
	// SparsePasses counts cone-restricted backward passes; FullPasses
	// counts full passes under sparse mode (warm-up, density fallback,
	// objective gone quiet).
	SparsePasses int
	FullPasses   int
	// Selected / Endpoints are the seeded and constrained endpoint counts
	// of the last sparse pass.
	Selected  int
	Endpoints int
	// ConePins / TotalPins are the reverse-sweep pin counts of the last
	// sparse pass (TotalPins is the full sweep's group-pin total).
	ConePins  int
	TotalPins int
	// CumConePins / CumPins accumulate the same counts over all sparse
	// passes, for average coverage.
	CumConePins int64
	CumPins     int64
}

// Coverage returns the average fraction of reverse-sweep pins touched by
// sparse passes (0 when none ran).
func (s ConeStats) Coverage() float64 {
	if s.CumPins == 0 {
		return 0
	}
	return float64(s.CumConePins) / float64(s.CumPins)
}

// sparseState is the cone-extraction machinery of the sparse backward pass:
// top-k endpoint selection scratch, the reverse-BFS cone marking worklists,
// the per-level marked-group lists driving the restricted sweep, the two-pass
// Fig. 4 scatter buffers, and the stale-gradient memory. Everything is sized
// once at construction so the steady state never allocates; sparse sets are
// cleared through their retained member lists (O(cone), not O(universe)).
type sparseState struct {
	topK       int
	decay      float64
	nEndpoints int
	// timingPins is the total reverse-sweep work (sum of group pins).
	timingPins int

	// domains partitions endpoint indices by EndpointKind so the quota
	// keeps register and port endpoints from starving each other.
	domains [2][]int32

	// Selection scratch.
	selFlags     []bool  //dtgp:index domain=endp
	selEps       []int32 //dtgp:index elem=endp
	order        []int32 //dtgp:index elem=endp
	selCompactor *parallel.Compactor

	// Cone marking state. buckets holds cone pins per level awaiting
	// fan-in expansion; groupOf/groupBase map pins to global bwdGroup ids;
	// levelGroups lists the marked local group indices per level. The cone
	// is a pure function of the seeded pin set (the level graph is static),
	// so it is cached across passes: seedPins/prevSeedPins detect selection
	// changes and coneValid gates the rebuild.
	coneSet      bitset.Set
	conePinList  []int32   //dtgp:index elem=pin
	buckets      [][]int32 //dtgp:index domain=level
	groupOf      []int32   //dtgp:index domain=pin
	groupBase    []int32   //dtgp:index domain=level
	groupMark    bitset.Set
	markedGroups []int32
	levelGroups  [][]int32 //dtgp:index domain=level
	netMark      bitset.Set
	coneNets     []int32 //dtgp:index elem=net
	//dtgp:cached by=buildSparseState,backwardSparse
	seedPins []int32 //dtgp:index elem=pin
	//dtgp:cached by=buildSparseState,backwardSparse
	prevSeedPins []int32 //dtgp:index elem=pin
	//dtgp:cached by=buildSparseState,backwardSparse
	coneValid bool

	// Cells adjacent to a touched net (Timer.touchedNets): the gather pass
	// runs over these only.
	cellMark     bitset.Set
	touchedCells []int32 //dtgp:index elem=cell

	// Fig. 4 two-pass scatter state: per-net per-pin-slot gradient
	// accumulators and the static cell→(net, slot) transpose in CSR form
	// (the exact inverse of the serial loop's slot→cell attribution).
	pinGX         [][]float64 //dtgp:index domain=net
	pinGY         [][]float64 //dtgp:index domain=net
	cellSlotStart []int32     //dtgp:index domain=cell
	cellSlotNet   []int32     //dtgp:index elem=net
	cellSlotPos   []int32     //dtgp:index elem=npin

	// Stale-gradient memory: the cell gradients emitted by the previous
	// pass, reused with geometric decay for non-cone contributions. warm
	// is false until the first full pass has filled it; prevFull records
	// that the previous pass dirtied all accumulators.
	staleX, staleY []float64 //dtgp:index domain=cell
	warm           bool
	prevFull       bool

	// Dispatch state and stored kernels (bound once, like Timer.bwdFn).
	curGroups []bwdGroup
	curList   []int32
	sweepFn   func(i int)
	scatterFn func(w, lo, hi int)
	decayFn   func(w, lo, hi int)
	gatherFn  func(w, lo, hi int)

	stats ConeStats
}

// buildSparseState allocates the sparse-backward buffers up front so the
// steady state never grows them.
func (t *Timer) buildSparseState() {
	g := t.G
	d := g.D
	sb := &sparseState{decay: t.Opts.ConeDecay, nEndpoints: len(g.Endpoints)}
	t.sb = sb

	sb.topK = t.Opts.TopK
	if sb.topK <= 0 {
		sb.topK = len(g.Endpoints) / 8
		if sb.topK < 16 {
			sb.topK = 16
		}
	}
	if sb.topK > len(g.Endpoints) {
		sb.topK = len(g.Endpoints)
	}
	for ei := range g.Endpoints {
		k := g.Endpoints[ei].Kind
		sb.domains[k] = append(sb.domains[k], int32(ei))
	}
	// All fixed-size sparse-state arrays carve from the arena
	// (construction is serial). The per-level buckets and group lists are
	// windows into two slabs, like the timer's levelBuckets.
	a := t.Opts.Arena
	nEps := len(g.Endpoints)
	sb.selFlags = arena.Make[bool](a, nEps)
	sb.selEps = arena.MakeCap[int32](a, 0, nEps)
	sb.order = arena.Make[int32](a, nEps)
	sb.selCompactor = parallel.NewCompactor(4 * parallel.Workers())

	nPins := len(d.Pins)
	sb.coneSet.Grow(nPins)
	sb.conePinList = arena.MakeCap[int32](a, 0, nPins)
	sb.buckets = make([][]int32, len(g.Levels))
	sb.levelGroups = make([][]int32, len(t.bwdGroups))
	{
		totalPins, totalGroups := 0, 0
		for li, level := range g.Levels {
			totalPins += len(level)
			totalGroups += len(t.bwdGroups[li])
		}
		pinSlab := arena.Make[int32](a, totalPins)     //dtgp:index elem=pin
		groupSlab := arena.Make[int32](a, totalGroups) //dtgp:index elem=bwdgroup
		po, go_ := 0, 0
		for li, level := range g.Levels {
			sb.buckets[li] = pinSlab[po : po : po+len(level)]
			po += len(level)
			ng := len(t.bwdGroups[li])
			sb.levelGroups[li] = groupSlab[go_ : go_ : go_+ng]
			go_ += ng
		}
	}
	sb.groupOf = arena.Make[int32](a, nPins)
	for i := range sb.groupOf {
		sb.groupOf[i] = -1
	}
	sb.groupBase = arena.Make[int32](a, len(t.bwdGroups)+1)
	nGroups := 0
	for li := range t.bwdGroups {
		sb.groupBase[li] = int32(nGroups)
		for gi := range t.bwdGroups[li] {
			id := int32(nGroups + gi)
			for _, pid := range t.bwdGroups[li][gi].pins {
				sb.groupOf[pid] = id
			}
			sb.timingPins += len(t.bwdGroups[li][gi].pins)
		}
		nGroups += len(t.bwdGroups[li])
	}
	sb.groupBase[len(t.bwdGroups)] = int32(nGroups)
	sb.groupMark.Grow(nGroups)
	sb.markedGroups = arena.MakeCap[int32](a, 0, nGroups)
	sb.netMark.Grow(len(d.Nets))
	sb.coneNets = arena.MakeCap[int32](a, 0, len(d.Nets))
	sb.seedPins = arena.MakeCap[int32](a, 0, nEps)
	sb.prevSeedPins = arena.MakeCap[int32](a, 0, nEps)
	sb.cellMark.Grow(len(d.Cells))
	sb.touchedCells = arena.MakeCap[int32](a, 0, len(d.Cells))

	// Per-net pin-gradient buffers: exact sizes, so the jagged views are
	// windows into two slabs.
	sb.pinGX = make([][]float64, len(d.Nets))
	sb.pinGY = make([][]float64, len(d.Nets))
	nSlots := 0
	for ni := range d.Nets {
		nSlots += len(d.Nets[ni].Pins)
	}
	{
		gxSlab := arena.Make[float64](a, nSlots)
		gySlab := arena.Make[float64](a, nSlots)
		off := 0
		for ni := range d.Nets {
			np := len(d.Nets[ni].Pins)
			sb.pinGX[ni] = gxSlab[off : off+np : off+np]
			sb.pinGY[ni] = gySlab[off : off+np : off+np]
			off += np
		}
	}
	// Cell→(net, slot) transpose in (net, slot) order: counting sort into
	// CSR so the gather pass sums each cell's slots in a fixed order.
	sb.cellSlotStart = arena.Make[int32](a, len(d.Cells)+1)
	for ni := range d.Nets {
		for _, pid := range d.Nets[ni].Pins {
			sb.cellSlotStart[d.Pins[pid].Cell+1]++
		}
	}
	for ci := 0; ci < len(d.Cells); ci++ {
		sb.cellSlotStart[ci+1] += sb.cellSlotStart[ci]
	}
	sb.cellSlotNet = arena.Make[int32](a, nSlots)
	sb.cellSlotPos = arena.Make[int32](a, nSlots)
	fill := make([]int32, len(d.Cells))
	for ni := range d.Nets {
		for k, pid := range d.Nets[ni].Pins {
			ci := d.Pins[pid].Cell
			s := sb.cellSlotStart[ci] + fill[ci]
			fill[ci]++
			sb.cellSlotNet[s] = int32(ni)
			sb.cellSlotPos[s] = int32(k)
		}
	}
	sb.staleX = arena.Make[float64](a, len(d.Cells))
	sb.staleY = arena.Make[float64](a, len(d.Cells))

	sb.sweepFn = func(i int) { t.backwardGroup(&sb.curGroups[sb.curList[i]]) }
	sb.scatterFn = t.scatterNetGrads
	sb.decayFn = t.decayCellGrads
	sb.gatherFn = t.gatherCellGrads
}

// noteFull records that a full backward pass just completed: its cell
// gradients become the stale memory, and every accumulator is dirty for the
// next sparse pass.
func (sb *sparseState) noteFull(t *Timer) {
	copy(sb.staleX, t.CellGradX)
	copy(sb.staleY, t.CellGradY)
	sb.warm = true
	sb.prevFull = true
	sb.stats.FullPasses++
}

// backwardSparse is the cone-restricted backward pass: select the top-k most
// critical endpoints, mark their transitive fan-in cones over the level
// graph, seed LSE adjoints with a partition function renormalised over the
// selected subset, sweep only the marked groups in reverse, run Elmore
// backward over cone nets only, and redistribute net gradients to cells with
// the deterministic two-pass scatter — blending in the decayed stale
// gradient so non-cone endpoint contributions fade instead of vanishing.
// It falls back to the full pass while cold (no stale memory yet) and when
// the cone would cover most of the graph anyway.
//
//dtgp:hotpath
func (t *Timer) backwardSparse(t1, t2 float64) float64 {
	sb := t.sb
	b0 := time.Now()
	// Full-backward fence: whenever the forward ran in full (first build,
	// refresh fence, dirty-density cutoff) the backward runs in full too, so
	// every cell receives an exact gradient at least every FencePeriod
	// evaluations and the stale-decay bias outside the cones cannot
	// accumulate over a long placement run. Also covers the cold start
	// (no stale memory yet).
	if !sb.warm || t.fullPass {
		f := t.backwardFull(t1, t2)
		t.Phase.BackwardNS += time.Since(b0).Nanoseconds()
		return f
	}

	// Clear adjoints. After a full pass everything is dirty; in sparse
	// steady state gAT/gSlew get the plain memset while the per-net
	// accumulators are already zero (each pass re-zeroes exactly the nets
	// it touched on its way out), and CellGrad is overwritten by the
	// decay+gather passes.
	if sb.prevFull {
		parallel.Run(t.resetTasks...)
		sb.prevFull = false
	} else {
		t.resetTasks[0]()
	}

	f, any := t.objective(t1, t2, false)
	if !any {
		for ci := range t.CellGradX {
			t.CellGradX[ci], t.CellGradY[ci] = 0, 0
			sb.staleX[ci], sb.staleY[ci] = 0, 0
		}
		t.Phase.BackwardNS += time.Since(b0).Nanoseconds()
		return f
	}

	c0 := time.Now()
	t.selectTopK()
	// Budget cutoff: when the selection covers most constrained endpoints
	// the full pass costs about the same and is exact. There is no
	// structural cone-size cutoff — deep convergent logic makes even one
	// endpoint's fan-in cone wide, and it is the adjoint deadband
	// (ConePrune), not the cone boundary, that keeps the sweep's LUT work
	// sparse inside it.
	if 2*len(sb.selEps) >= len(t.sEps) {
		selNS := time.Since(c0).Nanoseconds()
		t.Phase.ConeBuildNS += selNS
		f := t.backwardFull(t1, t2)
		t.Phase.BackwardNS += time.Since(b0).Nanoseconds() - selNS
		return f
	}
	// The structural cone is a pure function of the seeded pin set over the
	// static level graph, so it is rebuilt only when the selection's seeded
	// pins actually changed; per-net accumulator sizing still tracks tree
	// rebuilds every pass.
	sb.seedPins = sb.seedPins[:0]
	for _, ei := range sb.selEps {
		if math.IsInf(t.epStates[ei].sEp, 1) {
			continue
		}
		sb.seedPins = append(sb.seedPins, t.G.Endpoints[ei].Pin)
	}
	if !sb.coneValid || !int32SliceEqual(sb.seedPins, sb.prevSeedPins) {
		t.markCones()
		sb.prevSeedPins = append(sb.prevSeedPins[:0], sb.seedPins...)
		sb.coneValid = true
	}
	t.ensureConeNetAccums()
	coneNS := time.Since(c0).Nanoseconds()
	t.Phase.ConeBuildNS += coneNS

	sb.stats.SparsePasses++
	sb.stats.Selected = len(sb.selEps)
	sb.stats.Endpoints = len(t.sEps)
	sb.stats.ConePins = len(sb.conePinList)
	sb.stats.TotalPins = sb.timingPins
	sb.stats.CumConePins += int64(len(sb.conePinList))
	sb.stats.CumPins += int64(sb.timingPins)

	t.seedSparse(t1, t2)

	// Reverse level sweep over marked groups only. Groups keep the same
	// single-writer structure as the full sweep; unmarked pins inside a
	// marked group carry zero adjoints and fall out of the kernels'
	// zero-skip, so in-group accumulation order matches the full pass.
	for li := len(sb.levelGroups) - 1; li >= 0; li-- {
		list := sb.levelGroups[li]
		if len(list) == 0 {
			continue
		}
		sb.curGroups = t.bwdGroups[li]
		sb.curList = list
		parallel.ForCost(len(list), parallel.CostHeavy, sb.sweepFn)
	}

	// Collect the nets the sweep actually wrote (deterministic: cone-list
	// order filtered by the single-writer touch flags), then run Elmore
	// backward (Eq. 8) over exactly those.
	t.touchedNets = t.touchedNets[:0]
	for _, ni := range sb.coneNets {
		t.collectTouched(ni)
	}
	parallel.ForGuided(len(t.touchedNets), 4, parallel.CostHeavy, t.elmoreFn)

	// Fig. 4 redistribution as a deterministic two-pass scatter: per-net
	// Steiner gradients fold into per-pin-slot accumulators (single writer
	// per net, fixed node order), then every cell takes the decayed stale
	// gradient and the cells adjacent to a touched net add their own pins'
	// slots on top (single writer per cell, fixed pin order).
	parallel.ForGuided(len(t.touchedNets), 4, parallel.CostHeavy, sb.scatterFn)
	sb.cellMark.ClearMembers(sb.touchedCells)
	sb.touchedCells = sb.touchedCells[:0]
	d := t.G.D
	for _, ni := range t.touchedNets {
		if !t.netGradUsed[ni] {
			continue
		}
		for _, pid := range d.Nets[ni].Pins {
			ci := int32(d.Pins[pid].Cell)
			if sb.cellMark.TryAdd(ci) {
				sb.touchedCells = append(sb.touchedCells, ci)
			}
		}
	}
	parallel.ForGuided(len(t.G.D.Cells), 64, parallel.CostTrivial, sb.decayFn)
	parallel.ForGuided(len(sb.touchedCells), 16, parallel.CostLight, sb.gatherFn)

	// Leave the per-net accumulators zero for the next pass (O(touched),
	// replacing the full pass's global reset).
	for _, ni := range t.touchedNets {
		t.gLoadRoot[ni] = 0
		t.netGradUsed[ni] = false
		dn := t.gDelayNode[ni]
		for j := range dn {
			dn[j] = 0
		}
		im := t.gImpSq[ni]
		for j := range im {
			im[j] = 0
		}
	}

	t.Phase.BackwardNS += time.Since(b0).Nanoseconds() - coneNS
	return f
}

// int32SliceEqual reports whether two int32 slices hold the same sequence.
//
//dtgp:hotpath
func int32SliceEqual(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// ensureConeNetAccums sizes each cone net's Elmore accumulators to its
// current tree (trees rebuild between passes while the cone is cached),
// within the capacity NewTimer carved. Content stays zero: grown regions
// are zeroed here, live regions were zeroed by the previous pass's
// touched-net reset.
//
//dtgp:hotpath
func (t *Timer) ensureConeNetAccums() {
	sb := t.sb
	for _, ni := range sb.coneNets {
		ns := &t.Nets[ni]
		if ns.Tree == nil {
			continue
		}
		n := ns.Tree.NumNodes()
		cur := len(t.gDelayNode[ni])
		if cur == n {
			continue
		}
		t.gDelayNode[ni] = t.gDelayNode[ni][:n]
		t.gImpSq[ni] = t.gImpSq[ni][:n]
		for j := cur; j < n; j++ {
			t.gDelayNode[ni][j] = 0
			t.gImpSq[ni][j] = 0
		}
	}
}

// markCones grows the transitive fan-in cones of the selected endpoints with
// a reverse BFS over the level graph: net-sink pins pull in their net and its
// driver, cell-output pins pull in their cell-arc fan-ins (all strictly
// shallower, so one deep-to-shallow pass over the level buckets visits
// everything). Marks from the previous pass are cleared first through the
// retained member lists.
//
//dtgp:hotpath
func (t *Timer) markCones() {
	sb := t.sb
	g := t.G
	sb.resetMarks()
	for _, pid := range sb.seedPins {
		t.coneAdd(pid)
	}
	for li := len(sb.buckets) - 1; li >= 0; li-- {
		bucket := sb.buckets[li]
		if len(bucket) == 0 {
			continue
		}
		for _, pid := range bucket {
			switch {
			case g.IsStart[pid]:
			case g.IsNetSink[pid]:
				ni := g.NetOfSink[pid]
				if ni < 0 || t.Nets[ni].Tree == nil {
					continue
				}
				t.coneMarkNet(ni)
				t.coneAdd(g.D.Nets[ni].Driver)
			case g.IsCellOut[pid]:
				if netID := g.D.Pins[pid].Net; netID >= 0 {
					t.coneMarkNet(netID)
				}
				for ai := range g.ArcsInto[pid] {
					t.coneAdd(g.ArcsInto[pid][ai].FromPin)
				}
			}
		}
		sb.buckets[li] = bucket[:0]
	}
}

// resetMarks clears the previous cone through the retained member lists
// (O(previous cone), not O(universe)). Accumulator state needs no touch-up:
// every pass re-zeroes the nets it wrote on its way out.
//
//dtgp:hotpath
func (sb *sparseState) resetMarks() {
	sb.coneSet.ClearMembers(sb.conePinList)
	sb.conePinList = sb.conePinList[:0]
	sb.groupMark.ClearMembers(sb.markedGroups)
	sb.markedGroups = sb.markedGroups[:0]
	sb.netMark.ClearMembers(sb.coneNets)
	sb.coneNets = sb.coneNets[:0]
	for li := range sb.levelGroups {
		sb.levelGroups[li] = sb.levelGroups[li][:0]
	}
}

// coneAdd inserts a pin into the cone (once): it joins its level's expansion
// bucket and marks its backward group for the restricted sweep.
//
//dtgp:hotpath
//dtgp:index pid=pin
func (t *Timer) coneAdd(pid int32) {
	sb := t.sb
	if !sb.coneSet.TryAdd(pid) {
		return
	}
	sb.conePinList = append(sb.conePinList, pid)
	li := t.G.Level[pid]
	sb.buckets[li] = append(sb.buckets[li], pid)
	if gi := sb.groupOf[pid]; gi >= 0 && sb.groupMark.TryAdd(gi) {
		sb.markedGroups = append(sb.markedGroups, gi)
		sb.levelGroups[li] = append(sb.levelGroups[li], gi-sb.groupBase[li])
	}
}

// coneMarkNet marks a net as part of the cone (once). Accumulator sizing and
// zeroing happen elsewhere: ensureConeNetAccums tracks tree rebuilds each
// pass, and the touched-net reset re-zeroes exactly what a pass wrote.
//
//dtgp:hotpath
//dtgp:index ni=net
func (t *Timer) coneMarkNet(ni int32) {
	sb := t.sb
	if !sb.netMark.TryAdd(ni) {
		return
	}
	sb.coneNets = append(sb.coneNets, ni)
}

// seedSparse seeds ∂f/∂AT and ∂f/∂Slew at the selected endpoints, in the
// same shifted form as the full objective's seeding: the WNS partition
// keeps the full pass's shift wnsM but renormalises the sum over selected
// endpoints so the seeded softmin mass stays 1, while the per-endpoint TNS
// adjoint is exact (the unselected remainder is what the stale-gradient
// decay carries). It sets the sweep's deadband from the largest seed.
//
//dtgp:hotpath
func (t *Timer) seedSparse(t1, t2 float64) {
	sb := t.sb
	gamma := t.Opts.Gamma
	t.pruneAbs = 0
	zSel := 0.0
	for _, ei := range sb.selEps {
		st := &t.epStates[ei]
		if math.IsInf(st.sEp, 1) {
			continue
		}
		zSel += math.Exp((-st.sEp - t.wnsM) / gamma)
	}
	if zSel == 0 {
		return
	}
	t.pruneAbs = t.Opts.ConePrune * t.seedEndpoints(sb.selEps, zSel, t1, t2)
}

// scatterNetGrads is pass one of the parallel Fig. 4 redistribution: each
// used cone net folds its Steiner-node gradients into per-pin-slot
// accumulators in node order. Single writer per net, so any schedule
// produces the same sums.
//
//dtgp:hotpath
func (t *Timer) scatterNetGrads(_, lo, hi int) {
	sb := t.sb
	for i := lo; i < hi; i++ {
		ni := t.touchedNets[i]
		if !t.netGradUsed[ni] {
			continue
		}
		gr := t.netGrads[ni]
		tree := t.Nets[ni].Tree
		px, py := sb.pinGX[ni], sb.pinGY[ni]
		for k := range px {
			px[k] = 0
			py[k] = 0
		}
		for j := 0; j < tree.NumNodes(); j++ {
			if gr.X[j] != 0 {
				px[tree.XPin[j]] += gr.X[j]
			}
			if gr.Y[j] != 0 {
				py[tree.YPin[j]] += gr.Y[j]
			}
		}
	}
}

// decayCellGrads starts every cell's gradient at the decayed stale term
// (single writer per cell); cells adjacent to a touched net then add their
// cone contribution in gatherCellGrads.
//
//dtgp:hotpath
func (t *Timer) decayCellGrads(_, lo, hi int) {
	sb := t.sb
	decay := sb.decay
	for ci := lo; ci < hi; ci++ {
		gx := decay * sb.staleX[ci]
		gy := decay * sb.staleY[ci]
		t.CellGradX[ci] = gx
		t.CellGradY[ci] = gy
		sb.staleX[ci] = gx
		sb.staleY[ci] = gy
	}
}

// gatherCellGrads is pass two of the parallel Fig. 4 redistribution,
// restricted to cells adjacent to a touched net: each sums its own pins'
// slots across used nets (single writer per cell — every cell appears once in
// touchedCells — in fixed pin order) on top of the decayed stale term, and
// the result becomes the stale memory for the next pass.
//
//dtgp:hotpath
func (t *Timer) gatherCellGrads(_, lo, hi int) {
	sb := t.sb
	for i := lo; i < hi; i++ {
		ci := sb.touchedCells[i]
		gx, gy := t.CellGradX[ci], t.CellGradY[ci]
		for s := sb.cellSlotStart[ci]; s < sb.cellSlotStart[ci+1]; s++ {
			ni := sb.cellSlotNet[s]
			if !t.netGradUsed[ni] {
				continue
			}
			gx += sb.pinGX[ni][sb.cellSlotPos[s]]
			gy += sb.pinGY[ni][sb.cellSlotPos[s]]
		}
		t.CellGradX[ci] = gx
		t.CellGradY[ci] = gy
		sb.staleX[ci] = gx
		sb.staleY[ci] = gy
	}
}
