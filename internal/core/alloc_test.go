package core

import (
	"runtime"
	"testing"

	"dtgp/internal/arena"
	"dtgp/internal/gen"
	"dtgp/internal/parallel"
	"dtgp/internal/timing"
)

// TestEvaluateSteadyStateAllocFree pins down the allocation-free hot path:
// with topology frozen and most cells moving between evaluations, every
// Evaluate (geometry refresh of the moved nets + Elmore forward + the
// levelised forward + objective + backward) must run entirely in pre-sized
// scratch. Two warm-up calls size
// every buffer; after that, zero allocations per pass.
func TestEvaluateSteadyStateAllocFree(t *testing.T) {
	g := makeTestBed(t, 400, 31)
	tm := NewTimer(g, frozenOptions(50))
	eval := func() {
		moveCells(g.D, 0)
		tm.Evaluate(0.01, 0.001)
	}
	eval()
	eval()
	if allocs := testing.AllocsPerRun(10, eval); allocs != 0 {
		t.Errorf("Evaluate allocated %v objects/op in steady state, want 0", allocs)
	}
}

// TestEvaluateValueOnlySteadyStateAllocFree covers the forward-only entry
// point used by finite-difference checks.
func TestEvaluateValueOnlySteadyStateAllocFree(t *testing.T) {
	g := makeTestBed(t, 400, 32)
	tm := NewTimer(g, frozenOptions(50))
	eval := func() {
		moveCells(g.D, 0)
		tm.EvaluateValueOnly(0.01, 0.001)
	}
	eval()
	eval()
	if allocs := testing.AllocsPerRun(10, eval); allocs != 0 {
		t.Errorf("EvaluateValueOnly allocated %v objects/op in steady state, want 0", allocs)
	}
}

// TestEvaluateFenceAllocFree extends the contract to fence evaluations:
// with FencePeriod 1 every call re-extracts each moved net's Steiner and RC
// trees and runs the full sweeps. The cells alternate between two
// placements, so every rebuilt tree fits buffers an earlier build grew, and
// the arena pre-sizes the per-net gradient accumulators. A longer period
// would hide a per-fence allocation: AllocsPerRun rounds the per-call
// average down. Two garbage collections run before every call: the rebuilds
// take their scratch from the timer's per-worker slice, so a collection has
// nothing to empty, and scratch brought back into a pool would fail here.
func TestEvaluateFenceAllocFree(t *testing.T) {
	d, con, err := gen.Generate(gen.DefaultParams("core-fence", 400, 33))
	if err != nil {
		t.Fatal(err)
	}
	a := arena.New(1 << 20)
	d.Compact(a)
	g, err := timing.NewGraph(d, con)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.FencePeriod = 1
	opts.Arena = a
	tm := NewTimer(g, opts)
	x0, y0 := d.Positions()
	moveCells(d, 0)
	x1, y1 := d.Positions()
	flip := false
	eval := func() {
		runtime.GC()
		runtime.GC()
		if flip = !flip; flip {
			d.SetPositions(x0, y0)
		} else {
			d.SetPositions(x1, y1)
		}
		tm.Evaluate(0.01, 0.001)
	}
	for i := 0; i < 4; i++ {
		eval()
	}
	if allocs := testing.AllocsPerRun(10, eval); allocs != 0 {
		t.Errorf("fence Evaluate allocated %v objects/op in steady state, want 0", allocs)
	}
}

// mallocs returns the number of heap objects fn allocates. It runs fn with
// the worker pool forced serial: a lane that parks between dispatches
// allocates in the runtime, as often as the schedule makes it wait.
func mallocs(fn func()) uint64 {
	parallel.ForceSerial(true)
	defer parallel.ForceSerial(false)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestFirstEvaluateAllocatesNoPerNetObjects: building a timer and running
// its first evaluation, which carves the net states and builds every net,
// allocates as many heap objects on a design four times larger, within a
// small constant (arena chunks, scratch growth). The net states are
// net-indexed columns and the reverse-sweep groups offsets, so nothing is
// allocated per net or per group.
func TestFirstEvaluateAllocatesNoPerNetObjects(t *testing.T) {
	small, large := makeTestBed(t, 2000, 91), makeTestBed(t, 8000, 91)
	first := func(g *timing.Graph) uint64 {
		return mallocs(func() { NewTimer(g, DefaultOptions()).Evaluate(0.01, 0.001) })
	}
	ns, nl := first(small), first(large)
	if nl > ns+64 || ns > nl+64 {
		t.Errorf("NewTimer and the first Evaluate allocate %d objects at %d nets and %d at %d nets",
			ns, len(small.D.Nets), nl, len(large.D.Nets))
	}
}
