package timing

import (
	"dtgp/internal/bitset"
	"dtgp/internal/parallel"
)

// Incremental is the exact late-mode STA that the net-weighting flow keeps
// across placement iterations: after a set of cells move, only the nets
// incident to them get fresh Steiner/RC state and Elmore results, and then
// the late analysis is re-swept over the whole graph (LateState.sweep, the
// kernels Analyze runs). Endpoint setup slacks and WNS/TNS stay current
// after every MoveCells batch, bit-identical to a from-scratch Analyze.
type Incremental struct {
	LateState

	// Epsilon is read by nothing: every MoveCells re-sweeps the whole
	// graph, so no change is ever suppressed. benchmark/profile.go's
	// replayer still sets it, and ROADMAP item 2, which replaces that
	// replayer, deletes the field.
	Epsilon float64

	// netWork/netTouched collect the incident nets of a move batch in
	// first-touched order.
	netWork    []int32 //dtgp:index elem=net
	netTouched bitset.Set

	// rebuildFn re-extracts netWork[lo:hi] on the worker pool, worker w in
	// scratch[w]; stored once so MoveCells stays allocation-free in steady
	// state.
	rebuildFn func(w, lo, hi int)
	scratch   []BuildScratch
}

// NewIncremental builds the engine and runs the initial full analysis.
func NewIncremental(g *Graph) *Incremental {
	inc := &Incremental{scratch: NewBuildScratch()}
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
	inc.netTouched.Grow(len(g.D.Nets))
	inc.analyze(g, BuildNetStates(g))
	return inc
}

// MoveCells informs the engine that the given cells changed position. The
// incident nets' interconnect is re-extracted, and the late analysis is
// re-swept over the new wire view.
//
//dtgp:hotpath
//dtgp:index cells=[]cell
func (inc *Incremental) MoveCells(cells []int32) {
	g := inc.G
	d := g.D
	// Collect incident nets in first-touched order (deterministic given
	// the caller's cell order).
	inc.netWork = inc.netWork[:0]
	for _, ci := range cells {
		for _, pid := range d.Cells[ci].Pins {
			if ni := d.Pins[pid].Net; ni >= 0 && !g.IsClockNet[ni] && inc.netTouched.TryAdd(ni) {
				inc.netWork = append(inc.netWork, ni)
			}
		}
	}
	inc.netTouched.ClearMembers(inc.netWork)
	// Each net's state is independent and writes only its own pins' wire
	// view, so the nets re-extract on the worker pool.
	parallel.ForGuided(len(inc.netWork), 4, parallel.CostHeavy, inc.rebuildFn)
	inc.sweep()
}
