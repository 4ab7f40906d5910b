package timing

import (
	"slices"
	"sort"

	"dtgp/internal/bitset"
	"dtgp/internal/parallel"
)

// Incremental is an incremental late-mode STA engine in the spirit of the
// TAU 2015 contest (the paper's reference [30]): after a set of cells move,
// only the affected timing cone is re-evaluated — incident nets get fresh
// Elmore state, and arrival/slew changes propagate forward level by level
// until they damp out, required-time changes backward. Endpoint setup
// slacks and WNS/TNS stay current after every MoveCells batch.
//
// It maintains the late/setup analysis only (LateState, evaluated with the
// same kernels as Analyze), which is what the net-weighting flow needs.
type Incremental struct {
	LateState

	// Epsilon below which an AT/slew/RAT change does not propagate further.
	// NewIncremental starts at 0: every bitwise change propagates, so the
	// state equals a from-scratch Analyze bitwise.
	Epsilon float64

	// Pending propagation state: work holds dirty pins sorted by
	// (level, pid), inDirty is their membership bitset. An explicit
	// worklist instead of a map keyed set makes the drain order
	// deterministic by construction (map iteration order would otherwise
	// leak into the re-evaluation schedule) and avoids per-move map churn.
	work    []int32 //dtgp:index elem=pin
	inDirty bitset.Set
	// ratWork/inRatDirty are the reverse (required-time) worklist, drained
	// in (-level, pid) order after the forward drain.
	ratWork    []int32 //dtgp:index elem=pin
	inRatDirty bitset.Set
	// netWork/netTouched collect the incident nets of a move batch in
	// first-touched order.
	netWork    []int32 //dtgp:index elem=net
	netTouched bitset.Set

	fwdSorter workSorter
	ratSorter workSorter

	// rebuildFn re-extracts netWork[lo:hi] on the worker pool, worker w in
	// scratch[w]; stored once so MoveCells stays allocation-free in steady
	// state.
	rebuildFn func(w, lo, hi int)
	scratch   []BuildScratch
}

// workSorter sorts a pin worklist by (level, pid), optionally with levels
// descending (the required-time drain order). Large worklists take a
// counting-sort-by-level path over the persistent counts/starts/scratch
// buffers, so no call allocates.
type workSorter struct {
	w     []int32 //dtgp:index elem=pin
	level []int32 //dtgp:index domain=pin elem=level
	desc  bool
	// Counting-sort state: counts/starts are per-level (len = number of
	// levels), scratch holds the scattered worklist (cap = number of pins).
	counts, starts []int32 //dtgp:index domain=level
	scratch        []int32 //dtgp:index elem=pin
}

func (s *workSorter) less(i, j int) bool {
	a, b := s.w[i], s.w[j]
	la, lb := s.level[a], s.level[b]
	if la != lb {
		if s.desc {
			return la > lb
		}
		return la < lb
	}
	return a < b
}

// NewIncremental builds the engine and runs the initial full analysis.
func NewIncremental(g *Graph) *Incremental {
	inc := &Incremental{scratch: NewBuildScratch()}
	inc.fwdSorter.level = g.Level
	inc.ratSorter.level = g.Level
	inc.ratSorter.desc = true
	for _, s := range []*workSorter{&inc.fwdSorter, &inc.ratSorter} {
		s.counts = make([]int32, len(g.Levels))
		s.starts = make([]int32, len(g.Levels))
		s.scratch = make([]int32, len(g.D.Pins))
	}
	// Every touched net is re-extracted, including one left untimed (a
	// non-finite pin disconnects its Steiner tree) so that it is timed
	// again once its pins are finite; buildNetStateInto returns at once
	// for the structurally untimed ones.
	inc.rebuildFn = func(w, lo, hi int) {
		for i := lo; i < hi; i++ {
			ns := &inc.Nets[inc.netWork[i]]
			buildNetStateInto(inc.G, ns.Net, ns, &inc.scratch[w])
			ForwardNet(inc.G, ns, &inc.Wires)
		}
	}
	inc.inDirty.Grow(len(g.D.Pins))
	inc.inRatDirty.Grow(len(g.D.Pins))
	inc.netTouched.Grow(len(g.D.Nets))
	inc.analyze(g, BuildNetStates(g))
	return inc
}

// MoveCells informs the engine that the given cells changed position. The
// incident nets' interconnect is re-extracted and arrival changes propagate
// forward; required times propagate backward; endpoint metrics are
// refreshed.
//
//dtgp:hotpath
//dtgp:index cells=[]cell
func (inc *Incremental) MoveCells(cells []int32) {
	g := inc.G
	d := g.D
	// Collect incident nets in first-touched order (deterministic given
	// the caller's cell order; a map keyed set would re-extract in random
	// order and, worse, dirty pins in random order).
	inc.netWork = inc.netWork[:0]
	for _, ci := range cells {
		for _, pid := range d.Cells[ci].Pins {
			if ni := d.Pins[pid].Net; ni >= 0 && !g.IsClockNet[ni] && inc.netTouched.TryAdd(ni) {
				inc.netWork = append(inc.netWork, ni)
			}
		}
	}
	// Re-extract with fresh topology (cheap per net and always valid) on
	// the worker pool: each net's state is independent, and the dirty
	// marking below stays serial in first-touched order, so the result is
	// identical to the serial sweep.
	parallel.ForGuided(len(inc.netWork), 4, parallel.CostHeavy, inc.rebuildFn)
	for _, ni := range inc.netWork {
		inc.netTouched.Remove(ni)
		ns := &inc.Nets[ni]
		if ns.Tree == nil {
			continue
		}
		// Sinks see new delays; the driver sees a new load (its cell arcs
		// must be re-evaluated).
		for _, pid := range d.Nets[ni].Pins {
			inc.markDirty(pid)
		}
		// Required times that read this net's state directly: the driver
		// pulls across the new sink delays, and each cell input feeding the
		// driver pulls through an arc whose load is the driver's new load.
		driver := d.Nets[ni].Driver
		inc.markRATDirty(driver)
		for ai := range g.ArcsInto[driver] {
			inc.markRATDirty(g.ArcsInto[driver][ai].FromPin)
		}
	}
	inc.propagate()
	inc.propagateRAT()
	inc.setupSlacks()
}

// markDirty appends pid to the worklist unless it is already pending.
//
//dtgp:hotpath
//dtgp:index pid=pin
func (inc *Incremental) markDirty(pid int32) {
	if inc.inDirty.TryAdd(pid) {
		inc.work = append(inc.work, pid)
	}
}

// propagate drains the dirty worklist in (level, pid) order, re-evaluating
// pins and expanding to fanouts when values changed. The order is total, so
// the drain schedule — not just the final values — is deterministic.
//
//dtgp:hotpath
func (inc *Incremental) propagate() {
	g := inc.G
	if len(inc.work) == 0 {
		return
	}
	inc.sortWork()
	for head := 0; head < len(inc.work); head++ {
		pid := inc.work[head]
		inc.inDirty.Remove(pid)
		var changed bool
		switch {
		case g.IsStart[pid]:
			// Start values never change with placement.
		case g.IsNetSink[pid]:
			changed = inc.arriveNetSink(pid, inc.Epsilon)
		case g.IsCellOut[pid]:
			changed = inc.arriveCellOut(pid, inc.Epsilon)
		}
		if !changed {
			continue
		}
		// A changed slew moves this pin's endpoint seed and the arc-delay
		// pulls evaluated at it, so its required time must be revisited
		// (conservatively also on AT-only changes; the RAT then re-evaluates
		// to the same value and damps immediately).
		inc.markRATDirty(pid)
		// Expand to fanouts: net sinks if pid drives a net; cell outputs
		// fed by pid. Fanouts are strictly deeper than pid, so insertion
		// always lands beyond head and the pending tail stays sorted.
		pin := &g.D.Pins[pid]
		if ni := pin.Net; ni >= 0 && !g.IsClockNet[ni] && g.D.Nets[ni].Driver == pid {
			for _, q := range g.D.Nets[ni].Pins {
				if q != pid && inc.inDirty.TryAdd(q) {
					inc.insertPending(head+1, q)
				}
			}
		}
		cell := &g.D.Cells[pin.Cell]
		if cell.Lib >= 0 {
			lc := &g.D.Lib.Cells[cell.Lib]
			for ai := range lc.Arcs {
				arc := &lc.Arcs[ai]
				if arc.IsCheck() || cell.Pins[arc.From] != pid {
					continue
				}
				if q := cell.Pins[arc.To]; inc.inDirty.TryAdd(q) {
					inc.insertPending(head+1, q)
				}
			}
		}
	}
	inc.work = inc.work[:0]
}

// markRATDirty appends pid to the reverse worklist unless already pending.
//
//dtgp:hotpath
//dtgp:index pid=pin
func (inc *Incremental) markRATDirty(pid int32) {
	if inc.inRatDirty.TryAdd(pid) {
		inc.ratWork = append(inc.ratWork, pid)
	}
}

// propagateRAT drains the required-time worklist in (-level, pid) order:
// deepest pins first, because a pin's RAT reads only its fanouts' RATs,
// which sit at strictly greater levels. Fanins discovered on a change are
// strictly shallower, so insertion always lands beyond head and the pending
// tail stays sorted. Runs after the forward drain (require reads final
// slews).
//
//dtgp:hotpath
func (inc *Incremental) propagateRAT() {
	if len(inc.ratWork) == 0 {
		return
	}
	g := inc.G
	inc.ratSorter.w = inc.ratWork
	sortHybrid(&inc.ratSorter)
	for head := 0; head < len(inc.ratWork); head++ {
		pid := inc.ratWork[head]
		inc.inRatDirty.Remove(pid)
		if !inc.require(pid, inc.Epsilon) {
			continue
		}
		// Fanins whose pulls read pid's RAT: the driver of pid's net when
		// pid is a sink, and the From pins of the cell arcs into pid when
		// pid is a cell output.
		if ni := g.NetOfSink[pid]; ni >= 0 {
			if q := g.D.Nets[ni].Driver; inc.inRatDirty.TryAdd(q) {
				inc.insertRatPending(head+1, q)
			}
		}
		for ai := range g.ArcsInto[pid] {
			if q := g.ArcsInto[pid][ai].FromPin; inc.inRatDirty.TryAdd(q) {
				inc.insertRatPending(head+1, q)
			}
		}
	}
	inc.ratWork = inc.ratWork[:0]
}

// insertRatPending inserts pid into the sorted pending region ratWork[from:].
//
//dtgp:hotpath
//dtgp:index pid=pin
func (inc *Incremental) insertRatPending(from int, pid int32) {
	tail := inc.ratWork[from:]
	i := from + sort.Search(len(tail), func(i int) bool { return !inc.beforeRAT(tail[i], pid) })
	inc.ratWork = append(inc.ratWork, 0)
	copy(inc.ratWork[i+1:], inc.ratWork[i:])
	inc.ratWork[i] = pid
}

// beforeRAT is the reverse drain order: descending level, then pin id.
//
//dtgp:hotpath
//dtgp:index a=pin b=pin
func (inc *Incremental) beforeRAT(a, b int32) bool {
	la, lb := inc.G.Level[a], inc.G.Level[b]
	if la != lb {
		return la > lb
	}
	return a < b
}

// sortHybridCutoff is the worklist length above which the O(n²) insertion
// sort is abandoned for a counting sort by level. Small dirty sets (the
// incremental common case) stay on the insertion path, which is fast on the
// mostly-ordered sets moves produce; placement-loop batches that dirty most
// of the graph pay O(n + levels) plus a cheap pid sort per level bucket.
// Both paths run on persistent buffers and allocate nothing.
const sortHybridCutoff = 256

//dtgp:hotpath
func sortHybrid(s *workSorter) {
	n := len(s.w)
	if n > sortHybridCutoff {
		level := s.level
		counts := s.counts
		for i := range counts {
			counts[i] = 0
		}
		for _, p := range s.w {
			counts[level[p]]++
		}
		// Segment starts in drain order; counts then doubles as the
		// scatter cursor.
		acc := int32(0)
		if s.desc {
			for l := len(counts) - 1; l >= 0; l-- {
				s.starts[l] = acc
				acc += counts[l]
			}
		} else {
			for l := range counts {
				s.starts[l] = acc
				acc += counts[l]
			}
		}
		copy(counts, s.starts)
		scratch := s.scratch[:n]
		for _, p := range s.w {
			l := level[p]
			scratch[counts[l]] = p
			counts[l]++
		}
		for l := range s.starts {
			if lo, hi := s.starts[l], counts[l]; hi-lo > 1 {
				slices.Sort(scratch[lo:hi])
			}
		}
		copy(s.w, scratch)
		return
	}
	w := s.w
	for i := 1; i < n; i++ {
		j := i
		for j > 0 && s.less(j, j-1) {
			w[j], w[j-1] = w[j-1], w[j]
			j--
		}
	}
}

// sortWork sorts the forward worklist by (level, pid). Insertion sort keeps
// the hot path allocation-free (sort.Slice's closure escapes to the heap)
// and is fast on the small, mostly-ordered dirty sets incremental moves
// produce; batches that dirty most of the graph fall back to sort.Sort via
// sortHybrid.
//
//dtgp:hotpath
func (inc *Incremental) sortWork() {
	inc.fwdSorter.w = inc.work
	sortHybrid(&inc.fwdSorter)
}

// before is the worklist drain order: topological level, then pin id.
//
//dtgp:hotpath
//dtgp:index a=pin b=pin
func (inc *Incremental) before(a, b int32) bool {
	la, lb := inc.G.Level[a], inc.G.Level[b]
	if la != lb {
		return la < lb
	}
	return a < b
}

// insertPending inserts pid into the sorted pending region work[from:].
//
//dtgp:hotpath
//dtgp:index pid=pin
func (inc *Incremental) insertPending(from int, pid int32) {
	tail := inc.work[from:]
	i := from + sort.Search(len(tail), func(i int) bool { return !inc.before(tail[i], pid) })
	inc.work = append(inc.work, 0)
	copy(inc.work[i+1:], inc.work[i:])
	inc.work[i] = pid
}
