package timing

import "dtgp/internal/parallel"

// Incremental is the exact late-mode STA that the net-weighting flow keeps
// across placement iterations: after the cells move, every net gets fresh
// Steiner/RC state and Elmore results, and then the late analysis is
// re-swept over the whole graph (LateState.sweep, the kernels Analyze
// runs). Endpoint setup slacks and WNS/TNS stay current after every
// MoveCells, bit-identical to a from-scratch Analyze.
type Incremental struct {
	LateState

	// Epsilon is read by nothing: every MoveCells re-sweeps the whole
	// graph, so no change is ever suppressed. benchmark/profile.go's
	// replayer still sets it, and ROADMAP item 2, which replaces that
	// replayer, deletes the field.
	Epsilon float64

	// rebuildFn re-extracts Nets[lo:hi] on the worker pool, worker w in
	// scratch[w]; stored once so MoveCells stays allocation-free in steady
	// state.
	rebuildFn func(w, lo, hi int)
	scratch   []BuildScratch
}

// NewIncremental builds the engine and runs the initial full analysis.
func NewIncremental(g *Graph) *Incremental {
	inc := &Incremental{scratch: NewBuildScratch()}
	inc.rebuildFn = func(w, lo, hi int) {
		for i := lo; i < hi; i++ {
			RebuildNet(inc.G, inc.Nets, int32(i), &inc.Wires, &inc.scratch[w])
		}
	}
	inc.analyze(g, BuildNetStates(g))
	return inc
}

// MoveCells brings the engine up to the design's current cell positions:
// every net's interconnect is re-extracted, as the differentiable timer's
// fence does, and the late analysis is re-swept over the new wire view.
// Re-extracting a net whose pins did not move builds the same tree, so the
// state equals a from-scratch Analyze whichever cells moved. cells is read
// by nothing: benchmark/profile.go's replayer still passes the moved
// cells, and ROADMAP item 2, which replaces that replayer, drops it.
//
//dtgp:hotpath
func (inc *Incremental) MoveCells(cells []int32) {
	// Each net's state is independent and writes only its own pins' wire
	// view, so the nets re-extract on the worker pool, from the column of
	// pin positions refilled here.
	inc.G.D.FillPinPositions()
	parallel.ForGuided(len(inc.G.D.Nets), 8, parallel.CostHeavy, inc.rebuildFn)
	inc.sweep()
}
