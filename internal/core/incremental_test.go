package core

import (
	"math"
	"math/rand"
	"testing"
)

// frozenOptions is the production engine with Steiner topology frozen
// after the first build and the net refresh exact: no fence, no per-net
// rebuild, and any bitwise movement refreshes. Nets then only slide with
// their pins, so finite differences probe exactly the function the gradient
// differentiates.
func frozenOptions(gamma float64) Options {
	o := DefaultOptions()
	o.Gamma = gamma
	o.FencePeriod = 1 << 30
	o.DistortionLimit = math.Inf(1)
	o.RefreshEps = 0
	return o
}

// sameBits reports whether two float64 slices are bitwise equal.
func sameBits(a, b []float64) bool {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return len(a) == len(b)
}

// TestSubEpsilonMoveWaitsForFence checks the ε contract, the timer's one
// shortcut between fences: a net whose pins all stay within RefreshEps of
// the geometry of its last refresh keeps its Steiner/RC state, so a
// sub-ε move changes neither the objective nor any gradient bit. Once the
// pins drift past ε the net refreshes, and the next fence leaves the timer
// bitwise equal to a fresh one at the same positions.
func TestSubEpsilonMoveWaitsForFence(t *testing.T) {
	g := makeTestBed(t, 300, 39)
	d := g.D
	opts := DefaultOptions()
	tm := NewTimer(g, opts)
	const t1, t2 = 0.01, 0.0001
	f0 := tm.Evaluate(t1, t2)
	gx0 := append([]float64(nil), tm.CellGradX...)
	gy0 := append([]float64(nil), tm.CellGradY...)

	// The movable cell with the steepest timing gradient: its nets are
	// timed and its position moves the objective.
	ci := -1
	for c := range d.Cells {
		if d.Cells[c].Movable() && (ci < 0 || math.Abs(gx0[c]) > math.Abs(gx0[ci])) {
			ci = c
		}
	}
	if ci < 0 || gx0[ci] == 0 {
		t.Fatal("no movable cell has a timing gradient")
	}

	d.Cells[ci].Pos.X += 0.3 // 0.3 DBU from the last refresh: below ε
	if f := tm.Evaluate(t1, t2); math.Float64bits(f) != math.Float64bits(f0) {
		t.Fatalf("sub-ε move changed the objective: %v -> %v", f0, f)
	}
	if !sameBits(gx0, tm.CellGradX) || !sameBits(gy0, tm.CellGradY) {
		t.Fatal("sub-ε move changed the gradient")
	}

	d.Cells[ci].Pos.X += 0.3 // 0.6 DBU from the last refresh: above ε
	if f := tm.Evaluate(t1, t2); math.Float64bits(f) == math.Float64bits(f0) {
		t.Fatalf("a move past ε left the objective at %v", f)
	}
	if sameBits(gx0, tm.CellGradX) && sameBits(gy0, tm.CellGradY) {
		t.Fatal("a move past ε left the gradient unchanged")
	}

	for tm.evalCount%opts.FencePeriod != 0 {
		tm.Evaluate(t1, t2)
	}
	fFence := tm.Evaluate(t1, t2)
	fresh := NewTimer(g, opts)
	fFresh := fresh.Evaluate(t1, t2)
	if math.Float64bits(fFence) != math.Float64bits(fFresh) ||
		!sameBits(tm.CellGradX, fresh.CellGradX) || !sameBits(tm.CellGradY, fresh.CellGradY) {
		t.Fatalf("fence evaluation differs from a fresh timer: f %v vs %v", fFence, fFresh)
	}
}

// TestIncrementalFenceMatchesRebuild checks the fence path: FencePeriod 1
// re-extracts every moved net on each evaluation, so after every step the
// timer must be bit-identical to a fresh timer built at the same positions.
func TestIncrementalFenceMatchesRebuild(t *testing.T) {
	g := makeTestBed(t, 300, 33)
	d := g.D
	opts := DefaultOptions()
	opts.FencePeriod = 1
	fenced := NewTimer(g, opts)
	rng := rand.New(rand.NewSource(33))
	for it := 0; it < 8; it++ {
		for moved := 0; moved < 20; {
			ci := int32(rng.Intn(len(d.Cells)))
			if !d.Cells[ci].Movable() {
				continue
			}
			d.Cells[ci].Pos.X += rng.NormFloat64() * 200
			d.Cells[ci].Pos.Y += rng.NormFloat64() * 200
			moved++
		}
		fresh := NewTimer(g, opts)
		f1 := fresh.Evaluate(0.01, 0.0001)
		f2 := fenced.Evaluate(0.01, 0.0001)
		if math.Float64bits(f1) != math.Float64bits(f2) {
			t.Fatalf("iter %d: fenced objective %v != fresh %v", it, f2, f1)
		}
		if !sameBits(fresh.CellGradX, fenced.CellGradX) || !sameBits(fresh.CellGradY, fenced.CellGradY) {
			t.Fatalf("iter %d: fenced gradient differs from a fresh timer", it)
		}
	}
}

// TestIncrementalEvaluateSteadyStateAllocFree is the lazy-refresh alloc
// guard: once warm, moving a handful of cells and re-evaluating must not
// allocate.
func TestIncrementalEvaluateSteadyStateAllocFree(t *testing.T) {
	g := makeTestBed(t, 300, 35)
	d := g.D
	opts := DefaultOptions()
	opts.Gamma = 50
	opts.RefreshEps = 0.25
	opts.FencePeriod = 1 << 30
	tm := NewTimer(g, opts)
	var movable []int32
	for ci := range d.Cells {
		if d.Cells[ci].Movable() {
			movable = append(movable, int32(ci))
		}
		if len(movable) == 8 {
			break
		}
	}
	for i := 0; i < 3; i++ {
		tm.Evaluate(0.01, 0.0001)
	}
	sign := 1.0
	allocs := testing.AllocsPerRun(10, func() {
		for _, ci := range movable {
			d.Cells[ci].Pos.X += sign * 2
			d.Cells[ci].Pos.Y -= sign * 2
		}
		sign = -sign
		tm.Evaluate(0.01, 0.0001)
	})
	if allocs != 0 {
		t.Fatalf("incremental Evaluate allocates %v per run in steady state", allocs)
	}
}
