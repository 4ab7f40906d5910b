package core

import (
	"math"
	"math/rand"
	"testing"

	"dtgp/internal/gen"
	"dtgp/internal/timing"
)

func makeTestBed(t *testing.T, cells int, seed int64) *timing.Graph {
	t.Helper()
	d, con, err := gen.Generate(gen.DefaultParams("core-test", cells, seed))
	if err != nil {
		t.Fatal(err)
	}
	g, err := timing.NewGraph(d, con)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestTimerSmoothedTracksExact(t *testing.T) {
	g := makeTestBed(t, 400, 21)
	// Tiny γ → the smoothed engine degenerates to exact max/min.
	opts := DefaultOptions()
	opts.Gamma = 0.01
	tm := NewTimer(g, opts)
	tm.Evaluate(1, 1)
	exact := timing.AnalyzeWithNets(tm.G, tm.Nets)
	if math.Abs(tm.EstWNS-exact.WNS) > 2 {
		t.Errorf("hard-estimate WNS %v far from exact %v", tm.EstWNS, exact.WNS)
	}
	if relDiff(tm.EstTNS, exact.TNS) > 0.05 {
		t.Errorf("hard-estimate TNS %v far from exact %v", tm.EstTNS, exact.TNS)
	}
	if math.Abs(tm.SmWNS-exact.WNS) > 5 {
		t.Errorf("smoothed WNS %v far from exact %v at γ=0.01", tm.SmWNS, exact.WNS)
	}
}

func relDiff(a, b float64) float64 {
	den := math.Max(math.Abs(a), math.Abs(b))
	if den < 1e-9 {
		return 0
	}
	return math.Abs(a-b) / den
}

func TestSmoothedBoundsExact(t *testing.T) {
	g := makeTestBed(t, 400, 22)
	tm := NewTimer(g, DefaultOptions())
	tm.Evaluate(1, 1)
	// LSE overestimates max arrival → smoothed slacks underestimate true
	// slacks → smoothed WNS must not be better (larger) than the
	// hard-estimate from the same pass.
	if tm.SmWNS > tm.EstWNS+1e-6 {
		t.Errorf("smoothed WNS %v better than hard estimate %v", tm.SmWNS, tm.EstWNS)
	}
	if tm.SmTNS > tm.EstTNS+1e-6 {
		t.Errorf("smoothed TNS %v better than hard estimate %v", tm.SmTNS, tm.EstTNS)
	}
}

func TestEvaluateDeterministic(t *testing.T) {
	g := makeTestBed(t, 400, 23)
	tm1 := NewTimer(g, DefaultOptions())
	tm2 := NewTimer(g, DefaultOptions())
	f1 := tm1.Evaluate(0.01, 0.0001)
	f2 := tm2.Evaluate(0.01, 0.0001)
	if f1 != f2 {
		t.Fatalf("objective differs: %v vs %v", f1, f2)
	}
	for i := range tm1.CellGradX {
		if tm1.CellGradX[i] != tm2.CellGradX[i] || tm1.CellGradY[i] != tm2.CellGradY[i] {
			t.Fatalf("gradient differs at cell %d", i)
		}
	}
}

func TestEvaluateValueMatchesEvaluate(t *testing.T) {
	g := makeTestBed(t, 300, 24)
	tm1 := NewTimer(g, DefaultOptions())
	tm2 := NewTimer(g, DefaultOptions())
	f1 := tm1.Evaluate(0.01, 0.001)
	f2 := tm2.EvaluateValueOnly(0.01, 0.001)
	if math.Abs(f1-f2) > 1e-9 {
		t.Fatalf("Evaluate %v != EvaluateValueOnly %v", f1, f2)
	}
}

func TestGradientZeroForFixedOnlyMotion(t *testing.T) {
	g := makeTestBed(t, 300, 25)
	tm := NewTimer(g, DefaultOptions())
	tm.Evaluate(0.01, 0.001)
	// No gradient may land on filler-free fixed port cells' gradient
	// slots being consumed — they exist but the placer ignores them; what
	// must hold is that *some* movable cell receives gradient.
	any := false
	for ci := range tm.CellGradX {
		if g.D.Cells[ci].Movable() && (tm.CellGradX[ci] != 0 || tm.CellGradY[ci] != 0) {
			any = true
			break
		}
	}
	if !any {
		t.Fatal("no movable cell received a timing gradient")
	}
	for ci := range tm.CellGradX {
		if math.IsNaN(tm.CellGradX[ci]) || math.IsNaN(tm.CellGradY[ci]) {
			t.Fatalf("NaN gradient at cell %d", ci)
		}
	}
}

// TestTimerGradientFiniteDifference is the end-to-end check of the entire
// differentiable chain: Steiner attribution (Fig. 4) → Elmore backward
// (Eq. 8) → net/cell propagation backward (Eq. 10/12) → LSE objective. The
// analytic ∂f/∂(cell position) must match central finite differences with
// the Steiner topology held fixed (which is exactly the regime the gradient
// is defined in, §3.6).
func TestTimerGradientFiniteDifference(t *testing.T) {
	g := makeTestBed(t, 150, 26)
	d := g.D
	// Frozen topology: built once, probes slide the trees with their pins.
	tm := NewTimer(g, frozenOptions(60))
	const t1, t2 = 0.01, 0.001
	tm.Evaluate(t1, t2)
	gradX := append([]float64(nil), tm.CellGradX...)
	gradY := append([]float64(nil), tm.CellGradY...)

	rng := rand.New(rand.NewSource(99))
	const h = 0.02 // DBU — small enough that probes rarely straddle a kink
	checked, skipped := 0, 0
	for trial := 0; trial < 80 && checked < 30; trial++ {
		ci := rng.Intn(len(d.Cells))
		c := &d.Cells[ci]
		if !c.Movable() {
			continue
		}
		probe := func(dx, dy float64) float64 {
			c.Pos.X += dx
			c.Pos.Y += dy
			f := tm.EvaluateValueOnly(t1, t2)
			c.Pos.X -= dx
			c.Pos.Y -= dy
			return f
		}
		check := func(axis string, fdUp, fdDn, analytic float64) {
			fd := (fdUp + fdDn) / 2
			scale := math.Max(1e-6, math.Max(math.Abs(fd), math.Abs(analytic)))
			// The objective is piecewise smooth (|Δx| edge lengths, LUT
			// cells): when the two one-sided differences disagree the
			// probe straddles a kink — the analytic subgradient is then
			// only required to lie between them.
			if math.Abs(fdUp-fdDn) > 0.02*scale {
				lo, hi := math.Min(fdUp, fdDn), math.Max(fdUp, fdDn)
				if analytic < lo-0.02*scale || analytic > hi+0.02*scale {
					t.Errorf("cell %d (%s) %s: analytic %v outside one-sided range [%v, %v]",
						ci, c.Name, axis, analytic, lo, hi)
				}
				skipped++
				return
			}
			if math.Abs(fd-analytic) > 0.01*scale+1e-9 {
				t.Errorf("cell %d (%s) %s: analytic %v vs fd %v", ci, c.Name, axis, analytic, fd)
			}
		}
		f0 := probe(0, 0)
		check("dX", (probe(h, 0)-f0)/h, (f0-probe(-h, 0))/h, gradX[ci])
		check("dY", (probe(0, h)-f0)/h, (f0-probe(0, -h))/h, gradY[ci])
		checked++
	}
	if checked < 10 {
		t.Fatalf("only %d movable cells checked", checked)
	}
	if skipped > checked {
		t.Fatalf("too many kink skips: %d of %d axes", skipped, 2*checked)
	}
}

// TestGradientDescentImprovesTiming: taking a small step against the timing
// gradient must improve the smoothed objective — the property the whole
// placement flow rests on.
func TestGradientDescentImprovesTiming(t *testing.T) {
	g := makeTestBed(t, 300, 27)
	d := g.D
	tm := NewTimer(g, frozenOptions(100))
	const t1, t2 = 0.01, 0.001
	f0 := tm.Evaluate(t1, t2)
	if f0 <= 0 {
		t.Skip("design has no violations to optimise")
	}
	// Normalised step.
	norm := 0.0
	for ci := range tm.CellGradX {
		norm += tm.CellGradX[ci]*tm.CellGradX[ci] + tm.CellGradY[ci]*tm.CellGradY[ci]
	}
	norm = math.Sqrt(norm)
	if norm == 0 {
		t.Fatal("zero gradient with violations present")
	}
	step := 2.0 / norm * math.Sqrt(float64(len(d.Cells)))
	for ci := range d.Cells {
		if d.Cells[ci].Movable() {
			d.Cells[ci].Pos.X -= step * tm.CellGradX[ci]
			d.Cells[ci].Pos.Y -= step * tm.CellGradY[ci]
		}
	}
	f1 := tm.EvaluateValueOnly(t1, t2)
	if f1 >= f0 {
		t.Errorf("gradient step did not improve objective: %v → %v", f0, f1)
	}
}

func TestSteinerPeriodRebuild(t *testing.T) {
	g := makeTestBed(t, 200, 28)
	opts := DefaultOptions()
	opts.FencePeriod = 3
	tm := NewTimer(g, opts)
	// Move every cell a long way between evaluations; after the periodic
	// fence the trees must re-adapt (no stale-topology crash, objective
	// stays finite).
	for iter := 0; iter < 7; iter++ {
		f := tm.Evaluate(0.01, 0.001)
		if math.IsNaN(f) || math.IsInf(f, 0) {
			t.Fatalf("iter %d: objective %v", iter, f)
		}
		for ci := range g.D.Cells {
			if g.D.Cells[ci].Movable() {
				g.D.Cells[ci].Pos.X += 50
			}
		}
	}
}

func TestNoViolationsZeroObjective(t *testing.T) {
	d, con, err := gen.Generate(gen.DefaultParams("relaxed", 200, 29))
	if err != nil {
		t.Fatal(err)
	}
	con.Period = 1e9 // absurdly relaxed clock
	g, err := timing.NewGraph(d, con)
	if err != nil {
		t.Fatal(err)
	}
	tm := NewTimer(g, DefaultOptions())
	f := tm.Evaluate(0.01, 0.001)
	// With huge positive slacks, softneg ≈ 0 and softmin(WNS) is hugely
	// positive, so −t2·WNS_γ is very negative; the TNS part must vanish.
	if tm.SmTNS < -1 {
		t.Errorf("smoothed TNS = %v, want ≈ 0 with relaxed clock", tm.SmTNS)
	}
	if tm.EstWNS < 0 {
		t.Errorf("estimated WNS = %v, want positive with relaxed clock", tm.EstWNS)
	}
	_ = f
	// Gradients should be (numerically) negligible for TNS-only weights.
	tm2 := NewTimer(g, DefaultOptions())
	tm2.Evaluate(0.01, 0)
	for ci := range tm2.CellGradX {
		if math.Abs(tm2.CellGradX[ci]) > 1e-9 {
			t.Errorf("cell %d has TNS gradient %v despite no violations", ci, tm2.CellGradX[ci])
			break
		}
	}
}

func TestTimerString(t *testing.T) {
	g := makeTestBed(t, 150, 30)
	tm := NewTimer(g, DefaultOptions())
	tm.Evaluate(0.01, 0.001)
	if s := tm.String(); len(s) == 0 {
		t.Error("empty String()")
	}
}

// TestConeStats checks what Timer.Cone reports: every backward pass is a
// full pass, no pass is restricted to a cone, and a forward-only
// evaluation runs no backward pass.
func TestConeStats(t *testing.T) {
	g := makeTestBed(t, 300, 67)
	tm := NewTimer(g, DefaultOptions())
	for i := 0; i < 5; i++ {
		tm.Evaluate(0.01, 0.001)
	}
	tm.EvaluateValueOnly(0.01, 0.001)
	if cs := tm.Cone(); cs.FullPasses != 5 || cs.SparsePasses != 0 || cs.Coverage() != 0 {
		t.Fatalf("Cone() = %+v with coverage %v, want 5 full passes, no sparse pass and coverage 0",
			cs, cs.Coverage())
	}
}
