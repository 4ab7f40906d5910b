package place

import (
	"math"
	"slices"
	"testing"

	"dtgp/internal/core"
	"dtgp/internal/gen"
)

// TestFillerInsertion: the engine inserts fillers covering the whitespace
// so the density system has a stable equilibrium.
func TestFillerInsertion(t *testing.T) {
	d, con, err := gen.Generate(gen.DefaultParams("e", 400, 61))
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions(ModeWirelength)
	e, err := newEngine(d, con, opts)
	if err != nil {
		t.Fatal(err)
	}
	if e.nFill <= 0 {
		t.Fatal("no fillers inserted despite 70% utilization")
	}
	// Filler area ≈ whitespace: total movable+filler area ≤ die area.
	totalArea := 0.0
	for slot := 0; slot < e.nReal+e.nFill; slot++ {
		if e.movable[slot] {
			totalArea += e.w[slot] * e.h[slot]
		}
	}
	if totalArea > d.Die.Area()*1.02 {
		t.Errorf("movable+filler area %v exceeds die area %v", totalArea, d.Die.Area())
	}
	if totalArea < d.Die.Area()*0.8 {
		t.Errorf("movable+filler area %v leaves too much whitespace (die %v)", totalArea, d.Die.Area())
	}
}

// TestAutoBinCount: grid resolution scales with design size and stays a
// power of two.
func TestAutoBinCount(t *testing.T) {
	for _, cells := range []int{100, 1000, 4000} {
		d, con, err := gen.Generate(gen.DefaultParams("e", cells, 62))
		if err != nil {
			t.Fatal(err)
		}
		e, err := newEngine(d, con, DefaultOptions(ModeWirelength))
		if err != nil {
			t.Fatal(err)
		}
		bins := e.grid.M
		if bins&(bins-1) != 0 {
			t.Fatalf("bins %d not a power of two", bins)
		}
		if bins*bins < cells/4 {
			t.Errorf("cells %d: grid %d² too coarse", cells, bins)
		}
	}
}

// TestGradientPreconditioning: fixed slots carry zero gradient and movable
// gradients are finite.
func TestGradientPreconditioning(t *testing.T) {
	d, con, err := gen.Generate(gen.DefaultParams("e", 300, 64))
	if err != nil {
		t.Fatal(err)
	}
	e, err := newEngine(d, con, DefaultOptions(ModeWirelength))
	if err != nil {
		t.Fatal(err)
	}
	e.lambda = 1e-4
	n2 := 2 * (e.nReal + e.nFill)
	g := make([]float64, n2)
	e.gradient(e.z, g, 0)
	nSlots := e.nReal + e.nFill
	for slot := 0; slot < nSlots; slot++ {
		if !e.movable[slot] {
			if g[slot] != 0 || g[nSlots+slot] != 0 {
				t.Fatalf("fixed slot %d has gradient", slot)
			}
			continue
		}
		if math.IsNaN(g[slot]) || math.IsInf(g[slot], 0) {
			t.Fatalf("bad gradient at slot %d: %v", slot, g[slot])
		}
	}
}

// TestClampKeepsCellsInside: after clamping, every movable slot is within
// the die.
func TestClampKeepsCellsInside(t *testing.T) {
	d, con, err := gen.Generate(gen.DefaultParams("e", 200, 65))
	if err != nil {
		t.Fatal(err)
	}
	e, err := newEngine(d, con, DefaultOptions(ModeWirelength))
	if err != nil {
		t.Fatal(err)
	}
	nSlots := e.nReal + e.nFill
	z := append([]float64(nil), e.z...)
	for i := range z {
		z[i] += 1e9 // fling everything far outside
	}
	e.clamp(z)
	for slot := 0; slot < nSlots; slot++ {
		if !e.movable[slot] {
			continue
		}
		if z[slot] < d.Die.Lo.X-1e-9 || z[slot]+e.w[slot] > d.Die.Hi.X+1e-9 {
			t.Fatalf("slot %d x=%v outside die after clamp", slot, z[slot])
		}
		if z[nSlots+slot] < d.Die.Lo.Y-1e-9 || z[nSlots+slot]+e.h[slot] > d.Die.Hi.Y+1e-9 {
			t.Fatalf("slot %d y outside die after clamp", slot)
		}
	}
}

// TestOverflowZeroWhenSpread: a well-spread configuration reports (near)
// zero overflow.
func TestOverflowZeroWhenSpread(t *testing.T) {
	d, con, err := gen.Generate(gen.DefaultParams("e", 200, 66))
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions(ModeWirelength)
	opts.TargetDensity = 1.0
	e, err := newEngine(d, con, opts)
	if err != nil {
		t.Fatal(err)
	}
	// The generator's random initial placement is roughly uniform; at
	// target density 1.0 and 70% utilization, overflow should be modest.
	ov := e.overflow(e.z)
	// e.z holds the *centered* initial spread; rebuild from the design's
	// random placement instead.
	x, y := d.Positions()
	nSlots := e.nReal + e.nFill
	z := append([]float64(nil), e.z...)
	for ci := range d.Cells {
		z[ci] = x[ci]
		z[nSlots+ci] = y[ci]
	}
	ovRandom := e.overflow(z)
	if ovRandom >= ov {
		t.Errorf("random placement overflow %v not below centered-clump overflow %v", ovRandom, ov)
	}
}

// TestAblationKnobsReachTimer: every option an ablation sweeps must reach
// the differentiable timer, or the sweep prints equal rows without anyone
// noticing. The fence cadence and γ are read back from the timer's options;
// the Eq. 6 weights, which the engine passes to Evaluate, must each change
// the timer gradient.
func TestAblationKnobsReachTimer(t *testing.T) {
	d0, con, err := gen.Generate(gen.DefaultParams("e", 300, 66))
	if err != nil {
		t.Fatal(err)
	}
	timerAfterGradient := func(configure func(*Options)) *core.Timer {
		opts := DefaultOptions(ModeDiffTiming)
		configure(&opts)
		e, err := newEngine(d0.Clone(), con, opts)
		if err != nil {
			t.Fatal(err)
		}
		e.timingActive, e.tGrow = true, 1
		e.gradient(e.z, make([]float64, len(e.z)), 1)
		return e.timer
	}
	tm := timerAfterGradient(func(o *Options) { o.FencePeriod, o.TimingGamma = 7, 42 })
	if tm.Opts.FencePeriod != 7 || tm.Opts.Gamma != 42 {
		t.Errorf("timer runs FencePeriod %d, γ %v; want 7, 42", tm.Opts.FencePeriod, tm.Opts.Gamma)
	}
	both := timerAfterGradient(func(*Options) {}).CellGradX
	for _, w := range []struct {
		name string
		zero func(*Options)
	}{
		{"T1", func(o *Options) { o.T1 = 0 }},
		{"T2", func(o *Options) { o.T2 = 0 }},
	} {
		if slices.Equal(timerAfterGradient(w.zero).CellGradX, both) {
			t.Errorf("zeroing %s leaves the timer gradient unchanged", w.name)
		}
	}
}
