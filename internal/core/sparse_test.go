package core

import (
	"math"
	"math/rand"
	"testing"

	"dtgp/internal/parallel"
)

// sparseMovementRun drives a movement/Evaluate loop and returns the
// per-iteration objective values plus the final gradients.
func sparseMovementRun(t *testing.T, opts Options, iters int, delta float64) ([]float64, []float64, []float64) {
	t.Helper()
	g := makeTestBed(t, 400, 63)
	d := g.D
	tm := NewTimer(g, opts)
	rng := rand.New(rand.NewSource(11))
	vals := make([]float64, 0, iters)
	for i := 0; i < iters; i++ {
		for n := 0; n < 12; n++ {
			ci := rng.Intn(len(d.Cells))
			if !d.Cells[ci].Movable() {
				continue
			}
			d.Cells[ci].Pos.X += (rng.Float64()*2 - 1) * delta
			d.Cells[ci].Pos.Y += (rng.Float64()*2 - 1) * delta
		}
		f := tm.Evaluate(0.01, 0.001)
		if math.IsNaN(f) || math.IsInf(f, 0) {
			t.Fatalf("iter %d: objective %v", i, f)
		}
		vals = append(vals, f)
	}
	gx := append([]float64(nil), tm.CellGradX...)
	gy := append([]float64(nil), tm.CellGradY...)
	return vals, gx, gy
}

// TestSparseBackwardDeterministic replays the same movement sequence with the
// sparse backward on a 4-lane pool and on a single lane: the restricted
// sweep, the cone-limited Elmore pass and the two-pass Fig. 4 scatter are all
// single-writer phases with fixed accumulation orders, so objectives and
// gradients must match bit for bit across schedules.
func TestSparseBackwardDeterministic(t *testing.T) {
	prev := parallel.Workers()
	defer parallel.SetWorkers(prev)

	opts := DefaultOptions()
	opts.Gamma = 50
	run := func(workers int) ([]float64, []float64, []float64) {
		parallel.SetWorkers(workers)
		return sparseMovementRun(t, opts, 24, 1.5)
	}
	vals4, gx4, gy4 := run(4)
	vals1, gx1, gy1 := run(1)
	for i := range vals1 {
		if vals4[i] != vals1[i] {
			t.Fatalf("objective %d differs across schedules: %v (4 lanes) vs %v (serial)", i, vals4[i], vals1[i])
		}
	}
	for i := range gx1 {
		if gx4[i] != gx1[i] || gy4[i] != gy1[i] {
			t.Fatalf("cell %d gradient differs across schedules: (%v,%v) vs (%v,%v)", i, gx4[i], gy4[i], gx1[i], gy1[i])
		}
	}
}

// TestSparseFullBudgetFallsBackBitIdentical pins the fallback contract: with
// a budget covering every endpoint the density cutoff routes each pass to the
// full backward, and the whole trajectory — objectives and gradients — must
// be bit-identical to a SparseBackward=false run of the same movement
// sequence. A fence every third evaluation alternates full and dirty passes.
func TestSparseFullBudgetFallsBackBitIdentical(t *testing.T) {
	base := DefaultOptions()
	base.Gamma = 50
	base.FencePeriod = 3
	base.SparseBackward = false
	sparse := base
	sparse.SparseBackward = true
	sparse.TopK = 1 << 30

	valsF, gxF, gyF := sparseMovementRun(t, base, 12, 2)
	valsS, gxS, gyS := sparseMovementRun(t, sparse, 12, 2)
	for i := range valsF {
		if valsF[i] != valsS[i] {
			t.Fatalf("objective %d differs: full %v vs sparse-fallback %v", i, valsF[i], valsS[i])
		}
	}
	for i := range gxF {
		if gxF[i] != gxS[i] || gyF[i] != gyS[i] {
			t.Fatalf("cell %d gradient differs: full (%v,%v) vs sparse-fallback (%v,%v)",
				i, gxF[i], gyF[i], gxS[i], gyS[i])
		}
	}
}

// TestSparseConeGradientAlignsWithFull evaluates the same placement state
// with a full timer and a sparse timer (decay 0, so the emitted gradient is
// the pure cone gradient): the cone gradient must be a nonzero descent
// direction positively aligned with the full gradient.
func TestSparseConeGradientAlignsWithFull(t *testing.T) {
	g := makeTestBed(t, 400, 64)
	opts := frozenOptions(50)
	opts.SparseBackward = false
	full := NewTimer(g, opts)
	full.Evaluate(0.01, 0.001)

	opts.SparseBackward = true
	opts.ConeDecay = 0
	sp := NewTimer(g, opts)
	sp.Evaluate(0.01, 0.001) // warm-up: full pass seeds the stale memory
	sp.Evaluate(0.01, 0.001) // sparse pass on the identical state
	if sp.Cone().SparsePasses == 0 {
		t.Fatal("second evaluation did not run sparse")
	}

	dot, nSp, nFull := 0.0, 0.0, 0.0
	for i := range full.CellGradX {
		dot += sp.CellGradX[i]*full.CellGradX[i] + sp.CellGradY[i]*full.CellGradY[i]
		nSp += sp.CellGradX[i]*sp.CellGradX[i] + sp.CellGradY[i]*sp.CellGradY[i]
		nFull += full.CellGradX[i]*full.CellGradX[i] + full.CellGradY[i]*full.CellGradY[i]
	}
	if nSp == 0 {
		t.Fatal("sparse cone gradient is identically zero")
	}
	cos := dot / math.Sqrt(nSp*nFull)
	if cos < 0.5 {
		t.Errorf("cone gradient poorly aligned with full gradient: cos=%v", cos)
	}
}

// TestSparseGradientDescentImprovesTiming is the sparse counterpart of
// TestGradientDescentImprovesTiming: stepping against the sparse gradient
// (with default decay) must still reduce the smoothed objective.
func TestSparseGradientDescentImprovesTiming(t *testing.T) {
	g := makeTestBed(t, 300, 65)
	d := g.D
	opts := DefaultOptions()
	opts.Gamma = 50
	tm := NewTimer(g, opts)
	f0 := tm.Evaluate(0.01, 0.001)
	if f0 <= 0 {
		t.Skip("no violations to improve")
	}
	fPrev := f0
	improved := 0
	for it := 0; it < 12; it++ {
		// Normalised step against the current gradient, short enough
		// that most steps dirty under a quarter of the nets: a longer one
		// trips the dirty-density cutoff, whose full pass runs the exact
		// backward instead of the sparse one under test.
		norm := 0.0
		for ci := range d.Cells {
			norm += tm.CellGradX[ci]*tm.CellGradX[ci] + tm.CellGradY[ci]*tm.CellGradY[ci]
		}
		if norm == 0 {
			break
		}
		scale := 4 / math.Sqrt(norm)
		for ci := range d.Cells {
			if !d.Cells[ci].Movable() {
				continue
			}
			d.Cells[ci].Pos.X -= scale * tm.CellGradX[ci]
			d.Cells[ci].Pos.Y -= scale * tm.CellGradY[ci]
		}
		f := tm.Evaluate(0.01, 0.001)
		if f < fPrev {
			improved++
		}
		fPrev = f
	}
	if tm.Cone().SparsePasses == 0 {
		t.Fatal("descent loop never ran a sparse pass")
	}
	if fPrev >= f0 {
		t.Errorf("sparse gradient descent did not improve objective: %v -> %v", f0, fPrev)
	}
	if improved < 6 {
		t.Errorf("only %d/12 sparse steps improved the objective", improved)
	}
}

// TestSparseSteadyStateAllocFree extends the zero-alloc guard to the sparse
// path: after warm-up (one full pass plus one sparse pass sizing every
// worklist), cone selection, marking, the restricted sweep and the two-pass
// scatter must all run in pre-sized buffers.
func TestSparseSteadyStateAllocFree(t *testing.T) {
	g := makeTestBed(t, 400, 66)
	d := g.D
	tm := NewTimer(g, frozenOptions(50))
	rng := rand.New(rand.NewSource(17))
	step := func() {
		for n := 0; n < 8; n++ {
			ci := rng.Intn(len(d.Cells))
			if !d.Cells[ci].Movable() {
				continue
			}
			d.Cells[ci].Pos.X += (rng.Float64()*2 - 1) * 0.1
			d.Cells[ci].Pos.Y += (rng.Float64()*2 - 1) * 0.1
		}
		tm.Evaluate(0.01, 0.001)
	}
	step()
	step()
	step()
	if allocs := testing.AllocsPerRun(10, step); allocs != 0 {
		t.Errorf("sparse Evaluate allocated %v objects/op in steady state, want 0", allocs)
	}
	if tm.Cone().SparsePasses == 0 {
		t.Fatal("alloc guard never exercised the sparse path")
	}
}

// TestConeStats sanity-checks the reporting surface: sparse passes run, the
// selection respects the budget, and coverage is a genuine fraction.
func TestConeStats(t *testing.T) {
	g := makeTestBed(t, 400, 67)
	opts := DefaultOptions()
	opts.Gamma = 50
	opts.TopK = 8
	tm := NewTimer(g, opts)
	for i := 0; i < 5; i++ {
		tm.Evaluate(0.01, 0.001)
	}
	cs := tm.Cone()
	if cs.SparsePasses == 0 {
		t.Fatal("no sparse passes recorded")
	}
	if cs.FullPasses == 0 {
		t.Error("warm-up full pass not recorded")
	}
	// Per-domain floors can push the selection slightly above TopK.
	if cs.Selected > opts.TopK+2 {
		t.Errorf("selected %d endpoints with budget %d", cs.Selected, opts.TopK)
	}
	if cs.Selected < 1 {
		t.Errorf("selected %d endpoints, want >= 1", cs.Selected)
	}
	if cov := cs.Coverage(); cov <= 0 || cov >= 1 {
		t.Errorf("coverage %v outside (0,1)", cov)
	}
	if cs.ConePins <= 0 || cs.ConePins >= cs.TotalPins {
		t.Errorf("cone pins %d outside (0,%d)", cs.ConePins, cs.TotalPins)
	}
}
