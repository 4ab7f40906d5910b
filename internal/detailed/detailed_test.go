package detailed

import (
	"testing"

	"dtgp/internal/gen"
	"dtgp/internal/legalize"
	"dtgp/internal/timing"
)

func TestRefineReducesHPWL(t *testing.T) {
	d, _, err := gen.Generate(gen.DefaultParams("dp", 600, 13))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := legalize.Legalize(d); err != nil {
		t.Fatal(err)
	}
	before := d.HPWL()
	res, err := Refine(d, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.HPWLAfter > res.HPWLBefore {
		t.Errorf("refinement increased HPWL: %v → %v", res.HPWLBefore, res.HPWLAfter)
	}
	if res.HPWLBefore != before {
		t.Errorf("before-HPWL wrong: %v vs %v", res.HPWLBefore, before)
	}
	if res.AdjacentSwaps+res.GlobalSwaps == 0 {
		t.Error("no improving swaps found on a greedy-legalized design")
	}
	if err := legalize.Check(d); err != nil {
		t.Fatalf("refinement broke legality: %v", err)
	}
	if err := d.Validate(); err != nil {
		t.Fatalf("refinement corrupted the netlist: %v", err)
	}
}

func TestRefineIdempotentAtFixpoint(t *testing.T) {
	d, _, err := gen.Generate(gen.DefaultParams("dp", 300, 14))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := legalize.Legalize(d); err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.Passes = 10
	res1, err := Refine(d, opts)
	if err != nil {
		t.Fatal(err)
	}
	// A second run from the fixpoint should find (almost) nothing.
	res2, err := Refine(d, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res2.AdjacentSwaps > res1.AdjacentSwaps/4+2 {
		t.Errorf("second refinement still found %d adjacent swaps", res2.AdjacentSwaps)
	}
	if res2.HPWLAfter > res2.HPWLBefore {
		t.Error("second refinement increased HPWL")
	}
}

func TestRefineRejectsIllegalInput(t *testing.T) {
	d, _, err := gen.Generate(gen.DefaultParams("dp", 200, 15))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := legalize.Legalize(d); err != nil {
		t.Fatal(err)
	}
	// Introduce an overlap.
	var a, b int = -1, -1
	for ci := range d.Cells {
		if d.Cells[ci].Movable() {
			if a < 0 {
				a = ci
			} else {
				b = ci
				break
			}
		}
	}
	d.Cells[b].Pos = d.Cells[a].Pos
	if _, err := Refine(d, DefaultOptions()); err == nil {
		t.Error("overlapping input accepted")
	}
}

func TestRefineDeterministic(t *testing.T) {
	run := func() float64 {
		d, _, err := gen.Generate(gen.DefaultParams("dp", 400, 16))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := legalize.Legalize(d); err != nil {
			t.Fatal(err)
		}
		res, err := Refine(d, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		return res.HPWLAfter
	}
	if a, b := run(), run(); a != b {
		t.Errorf("nondeterministic refinement: %v vs %v", a, b)
	}
}

func TestRefineTimingIncremental(t *testing.T) {
	d, con, err := gen.Generate(gen.DefaultParams("dpt", 800, 21))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := legalize.Legalize(d); err != nil {
		t.Fatal(err)
	}
	g, err := timing.NewGraph(d, con)
	if err != nil {
		t.Fatal(err)
	}
	res0 := timing.Analyze(g)
	con.Period = 0.8 * res0.CriticalDelay()
	g, err = timing.NewGraph(d, con)
	if err != nil {
		t.Fatal(err)
	}

	res, err := RefineTiming(d, g, DefaultTimingOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.Tried == 0 {
		t.Fatal("no swaps tried on a violating design")
	}
	// The acceptance criterion guarantees a monotone score: the combined
	// metric must not regress.
	s0 := res.TNSBefore + 20*res.WNSBefore
	s1 := res.TNSAfter + 20*res.WNSAfter
	if s1 < s0-1e-6 {
		t.Errorf("timing-driven refinement regressed: score %v → %v", s0, s1)
	}
	if err := legalize.Check(d); err != nil {
		t.Fatalf("broke legality: %v", err)
	}
	// Result must agree with a from-scratch STA (the function itself
	// cross-checks, but verify the reported numbers too).
	final := timing.Analyze(g)
	if final.WNS != res.WNSAfter && mathAbs(final.WNS-res.WNSAfter) > 1e-3 {
		t.Errorf("reported WNS %v vs scratch %v", res.WNSAfter, final.WNS)
	}
}

func mathAbs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

func TestRefineTimingWrongGraph(t *testing.T) {
	d1, con1, err := gen.Generate(gen.DefaultParams("a", 100, 22))
	if err != nil {
		t.Fatal(err)
	}
	d2, _, err := gen.Generate(gen.DefaultParams("b", 100, 23))
	if err != nil {
		t.Fatal(err)
	}
	g1, err := timing.NewGraph(d1, con1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RefineTiming(d2, g1, DefaultTimingOptions()); err == nil {
		t.Error("mismatched design/graph accepted")
	}
}
