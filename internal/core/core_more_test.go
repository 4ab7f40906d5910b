package core

import (
	"math"
	"testing"

	"dtgp/internal/rctree"
	"dtgp/internal/timing"
)

// TestGammaMonotoneConservatism: larger γ makes the smoothed WNS more
// conservative (LSE over-estimates arrivals more), so SmWNS decreases
// monotonically in γ on a fixed design.
func TestGammaMonotoneConservatism(t *testing.T) {
	g := makeTestBed(t, 300, 81)
	prev := math.Inf(1)
	for _, gamma := range []float64{10, 50, 100, 300} {
		opts := DefaultOptions()
		opts.Gamma = gamma
		tm := NewTimer(g, opts)
		tm.Evaluate(0.01, 0.001)
		if tm.SmWNS > prev+1e-6 {
			t.Fatalf("SmWNS not monotone in γ: %v at γ=%v (prev %v)", tm.SmWNS, gamma, prev)
		}
		prev = tm.SmWNS
	}
}

// TestHardEstimateGammaInvariant: the hard-max estimate from the same pass
// should barely move with γ (only via slew smoothing), unlike SmWNS.
func TestHardEstimateGammaInvariant(t *testing.T) {
	g := makeTestBed(t, 300, 82)
	opts := DefaultOptions()
	opts.Gamma = 10
	tm1 := NewTimer(g, opts)
	tm1.Evaluate(0.01, 0.001)
	opts.Gamma = 300
	tm2 := NewTimer(g, opts)
	tm2.Evaluate(0.01, 0.001)
	smGap := math.Abs(tm1.SmWNS - tm2.SmWNS)
	estGap := math.Abs(tm1.EstWNS - tm2.EstWNS)
	if estGap > smGap {
		t.Errorf("hard estimate moved more (%v) than the smoothed value (%v) across γ", estGap, smGap)
	}
}

// TestObjectiveWeightsScale: doubling t1 doubles the TNS part of the
// objective (f is linear in the weights).
func TestObjectiveWeightsScale(t *testing.T) {
	g := makeTestBed(t, 250, 83)
	tm := NewTimer(g, DefaultOptions())
	f1 := tm.EvaluateValueOnly(0.01, 0)
	tm2 := NewTimer(g, DefaultOptions())
	f2 := tm2.EvaluateValueOnly(0.02, 0)
	if math.Abs(f2-2*f1) > 1e-9*(1+math.Abs(f2)) {
		t.Errorf("objective not linear in t1: %v vs 2×%v", f2, f1)
	}
}

// TestExactResultSharesInterconnect: the timer's arena-backed net states
// hold the same bits as the heap-built ones of a fresh timing.Analyze
// whenever the trees were just rebuilt, so do the two pin-indexed views of
// their Elmore results, and exact STA over either agrees bitwise: storage
// never changes a value. FencePeriod 1 rebuilds every moved net on each
// evaluation, so the later rounds compare trees rebuilt inside the
// capacity the arena carved, and views in which unmoved nets kept what
// they published earlier.
func TestExactResultSharesInterconnect(t *testing.T) {
	g := makeTestBed(t, 300, 84)
	opts := DefaultOptions()
	opts.FencePeriod = 1
	tm := NewTimer(g, opts)
	bits := math.Float64bits
	same := func(a, b []float64) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if bits(a[i]) != bits(b[i]) {
				return false
			}
		}
		return true
	}
	for round := 0; round < 3; round++ {
		tm.Evaluate(0.01, 0.001)
		nets := timing.BuildNetStates(g)
		scratch := timing.AnalyzeWithNets(g, nets)
		w, ws := &tm.Wires, &scratch.Wires
		for p := range ws.Driver {
			if w.Driver[p] != ws.Driver[p] || bits(w.Load[p]) != bits(ws.Load[p]) ||
				w.Driver[p] >= 0 && (bits(w.Delay[p]) != bits(ws.Delay[p]) || bits(w.ImpulseSq[p]) != bits(ws.ImpulseSq[p])) {
				t.Fatalf("round %d pin %d: the timer's view differs from the scratch analysis'", round, p)
			}
		}
		fromTimer := timing.AnalyzeWithNets(tm.G, tm.Nets)
		if bits(fromTimer.WNS) != bits(scratch.WNS) || bits(fromTimer.TNS) != bits(scratch.TNS) {
			t.Errorf("round %d: timer-state WNS/TNS %v/%v vs scratch %v/%v",
				round, fromTimer.WNS, fromTimer.TNS, scratch.WNS, scratch.TNS)
		}
		if !same(fromTimer.ATLate, scratch.ATLate) || !same(fromTimer.SlewLate, scratch.SlewLate) {
			t.Errorf("round %d: arrival or slew differs from the scratch analysis", round)
		}
		for i := range g.D.Nets {
			ni := int32(i)
			if tm.Nets.Timed(ni) != nets.Timed(ni) {
				t.Fatalf("round %d net %d: timed in one state only", round, ni)
			}
			var a, b rctree.Tree
			tm.Nets.RC(ni, &a)
			nets.RC(ni, &b)
			if a.N > 0 && !(same(a.Delay, b.Delay) && same(a.Impulse, b.Impulse) && same(a.Load, b.Load)) {
				t.Fatalf("round %d net %d: Elmore state differs from the scratch build", round, ni)
			}
		}
		moveCells(g.D, round)
	}
}

// TestGradDirectionDominantlyDescending: for a design with violations, the
// negative gradient direction must reduce the objective for most sampled
// scalings (sanity beyond the single-step test).
func TestGradDirectionDominantlyDescending(t *testing.T) {
	g := makeTestBed(t, 250, 85)
	d := g.D
	tm := NewTimer(g, frozenOptions(100))
	f0 := tm.Evaluate(0.01, 0.001)
	if f0 <= 0 {
		t.Skip("no violations")
	}
	norm := 0.0
	for ci := range tm.CellGradX {
		norm = math.Max(norm, math.Max(math.Abs(tm.CellGradX[ci]), math.Abs(tm.CellGradY[ci])))
	}
	if norm == 0 {
		t.Fatal("zero gradient")
	}
	gradX := append([]float64(nil), tm.CellGradX...)
	gradY := append([]float64(nil), tm.CellGradY...)
	improved := 0
	steps := []float64{0.5, 1, 2, 4}
	for _, s := range steps {
		step := s / norm
		for ci := range d.Cells {
			if d.Cells[ci].Movable() {
				d.Cells[ci].Pos.X -= step * gradX[ci]
				d.Cells[ci].Pos.Y -= step * gradY[ci]
			}
		}
		if tm.EvaluateValueOnly(0.01, 0.001) < f0 {
			improved++
		}
		for ci := range d.Cells {
			if d.Cells[ci].Movable() {
				d.Cells[ci].Pos.X += step * gradX[ci]
				d.Cells[ci].Pos.Y += step * gradY[ci]
			}
		}
	}
	if improved < len(steps)-1 {
		t.Errorf("descent improved only %d/%d step sizes", improved, len(steps))
	}
}
