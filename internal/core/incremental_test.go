package core

import (
	"math"
	"math/rand"
	"testing"
)

// frozenOptions is the production engine with Steiner topology frozen
// after the first build and every damping threshold exact: no fence, no
// per-net rebuild, any bitwise movement refreshes and any bitwise output
// change propagates. Nets then only slide with their pins, so finite
// differences probe exactly the function the gradient differentiates, and
// the dirty sweep must reproduce a full sweep to the last bit (skipped pins
// are exactly the pins whose recomputation would read unchanged inputs).
func frozenOptions(gamma float64) Options {
	o := DefaultOptions()
	o.Gamma = gamma
	o.FencePeriod = 1 << 30
	o.DistortionLimit = math.Inf(1)
	o.RefreshEps = 0
	o.PropagateEps = 0
	return o
}

// evaluateFull is the full-sweep oracle: the timer's own net refresh, then
// the forward sweep over every pin and the full backward, as on a fence.
func evaluateFull(t *Timer, t1, t2 float64) float64 {
	t.refreshNets()
	t.fullPass = true
	t.forward()
	return t.backward(t1, t2)
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

// TestIncrementalMatchesFullRefresh is the equivalence property test: across
// 50 random small-step iterations, incremental Evaluate must match the
// full-sweep oracle bitwise on the objective, TNS_γ/WNS_γ, the hard
// estimates and every cell gradient. Both timers share one design and run
// the full backward, so the dirty forward sweep is the only difference.
func TestIncrementalMatchesFullRefresh(t *testing.T) {
	g := makeTestBed(t, 400, 31)
	d := g.D
	opts := frozenOptions(80)
	opts.SparseBackward = false
	oracle := NewTimer(g, opts)
	inc := NewTimer(g, opts)
	rng := rand.New(rand.NewSource(31))
	const iters = 50
	for it := 0; it < iters; it++ {
		for moved := 0; moved < 10; {
			ci := int32(rng.Intn(len(d.Cells)))
			if !d.Cells[ci].Movable() {
				continue
			}
			d.Cells[ci].Pos.X += rng.NormFloat64() * 5
			d.Cells[ci].Pos.Y += rng.NormFloat64() * 5
			moved++
		}
		fFull := evaluateFull(oracle, 0.01, 0.0001)
		fInc := inc.Evaluate(0.01, 0.0001)
		if it > 0 && inc.fullPass {
			t.Fatalf("iter %d: small step ran a full pass; the dirty sweep is untested", it)
		}
		if !sameBits([]float64{fFull, oracle.SmTNS, oracle.SmWNS, oracle.EstTNS, oracle.EstWNS},
			[]float64{fInc, inc.SmTNS, inc.SmWNS, inc.EstTNS, inc.EstWNS}) {
			t.Fatalf("iter %d: objective or metrics diverged: f %v/%v TNS %v/%v WNS %v/%v est %v/%v %v/%v",
				it, fFull, fInc, oracle.SmTNS, inc.SmTNS, oracle.SmWNS, inc.SmWNS,
				oracle.EstTNS, inc.EstTNS, oracle.EstWNS, inc.EstWNS)
		}
		if !sameBits(oracle.CellGradX, inc.CellGradX) || !sameBits(oracle.CellGradY, inc.CellGradY) {
			t.Fatalf("iter %d: gradients diverged", it)
		}
	}
}

// TestIncrementalFenceMatchesRebuild checks the fence path: FencePeriod 1
// re-extracts every moved net and runs the full sweeps on each evaluation,
// so after every step the timer must be bit-identical to a fresh timer
// built at the same positions.
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

// TestIncrementalEvaluateSteadyStateAllocFree is the dirty-tracking alloc
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
