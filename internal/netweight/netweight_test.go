package netweight

import (
	"math"
	"testing"

	"dtgp/internal/gen"
	"dtgp/internal/timing"
)

func bed(t *testing.T) (*timing.Graph, *timing.Result) {
	t.Helper()
	d, con, err := gen.Generate(gen.DefaultParams("nw", 500, 19))
	if err != nil {
		t.Fatal(err)
	}
	// Tighten the clock so violations exist.
	g, err := timing.NewGraph(d, con)
	if err != nil {
		t.Fatal(err)
	}
	res := timing.Analyze(g)
	con.Period = 0.8 * res.CriticalDelay()
	g, err = timing.NewGraph(d, con)
	if err != nil {
		t.Fatal(err)
	}
	return g, timing.Analyze(g)
}

func TestCriticalityRange(t *testing.T) {
	g, res := bed(t)
	if res.WNS >= 0 {
		t.Fatal("test bed has no violations")
	}
	crit := CriticalityInto(make([]float64, len(g.D.Nets)), g.D, res)
	if len(crit) != len(g.D.Nets) {
		t.Fatal("wrong length")
	}
	anyPositive := false
	for ni, c := range crit {
		if c < 0 || c > 1 {
			t.Fatalf("net %d criticality %v out of [0,1]", ni, c)
		}
		if c > 0 {
			anyPositive = true
		}
	}
	if !anyPositive {
		t.Fatal("no critical nets despite violations")
	}
	// The clock net is excluded from timing and must have zero
	// criticality.
	clk := g.D.NetByName("clknet")
	if clk >= 0 && crit[clk] != 0 {
		t.Error("clock net has criticality")
	}
}

func TestCriticalityZeroWhenMet(t *testing.T) {
	d, con, err := gen.Generate(gen.DefaultParams("nw", 300, 20))
	if err != nil {
		t.Fatal(err)
	}
	con.Period = 1e9
	g, err := timing.NewGraph(d, con)
	if err != nil {
		t.Fatal(err)
	}
	res := timing.Analyze(g)
	for ni, c := range CriticalityInto(make([]float64, len(d.Nets)), d, res) {
		if c != 0 {
			t.Fatalf("net %d criticality %v with relaxed clock", ni, c)
		}
	}
}

func TestUpdateRaisesCriticalWeights(t *testing.T) {
	g, res := bed(t)
	u := NewUpdater(g.D, DefaultOptions())
	crit := CriticalityInto(make([]float64, len(g.D.Nets)), g.D, res)
	u.Update(g.D, res)
	if u.Updates != 1 {
		t.Error("update count wrong")
	}
	// Most critical net's weight must rise; zero-criticality nets stay 1.
	worst, worstC := -1, 0.0
	for ni, c := range crit {
		if c > worstC {
			worst, worstC = ni, c
		}
	}
	if worst < 0 {
		t.Fatal("no critical net")
	}
	if g.D.Nets[worst].Weight <= 1 {
		t.Errorf("critical net weight = %v, want > 1", g.D.Nets[worst].Weight)
	}
	for ni, c := range crit {
		if c == 0 && g.D.Nets[ni].Weight != 1 {
			t.Fatalf("non-critical net %d weight %v", ni, g.D.Nets[ni].Weight)
		}
	}
}

func TestWeightsCapAtMax(t *testing.T) {
	g, res := bed(t)
	opts := DefaultOptions()
	opts.MaxWeight = 3
	opts.MaxIncrease = 5 // absurd, to hit the cap fast
	u := NewUpdater(g.D, opts)
	for k := 0; k < 20; k++ {
		u.Update(g.D, res)
	}
	for ni := range g.D.Nets {
		if w := g.D.Nets[ni].Weight; w > opts.MaxWeight+1e-9 {
			t.Fatalf("net %d weight %v exceeds cap", ni, w)
		}
		if math.IsNaN(g.D.Nets[ni].Weight) {
			t.Fatal("NaN weight")
		}
	}
}

func TestMomentumSmoothsDrops(t *testing.T) {
	// A net that was critical keeps elevated pressure for a while after it
	// stops being critical (the momentum in [24]).
	g, res := bed(t)
	u := NewUpdater(g.D, DefaultOptions())
	u.Update(g.D, res)
	crit := CriticalityInto(make([]float64, len(g.D.Nets)), g.D, res)
	worst, worstC := -1, 0.0
	for ni, c := range crit {
		if c > worstC {
			worst, worstC = ni, c
		}
	}
	wAfter1 := g.D.Nets[worst].Weight
	// Second update with a fully-met (fake) result: velocity persists.
	relaxed := *res
	relaxed.WNS = 100 // pretend timing is met
	u.Update(g.D, &relaxed)
	wAfter2 := g.D.Nets[worst].Weight
	if wAfter2 <= wAfter1 {
		t.Errorf("momentum lost: %v → %v", wAfter1, wAfter2)
	}
}

func TestResetWeights(t *testing.T) {
	g, res := bed(t)
	u := NewUpdater(g.D, DefaultOptions())
	u.Update(g.D, res)
	ResetWeights(g.D)
	for ni := range g.D.Nets {
		if g.D.Nets[ni].Weight != 1 {
			t.Fatal("weight not reset")
		}
	}
}
